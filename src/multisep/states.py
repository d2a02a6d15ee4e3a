"""Reference states, noise families, and closed-form element providers.

Dense construction is fine up to a few thousand dimensions; the matrix-
element criteria, however, only ever touch a handful of elements, so the
noise families are also available as closed-form providers that answer
element queries without building the matrix (usable at n = 20 and
beyond).  Every family here is of the form

    rho = sum_t w_t |psi_t><psi_t| + w_noise * I / total

with sparse pure-state amplitude maps psi_t, which is exactly what the
provider evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .errors import DomainError
from .tensor import (
    DensityMatrix,
    StateVector,
    SystemShape,
    _check_dense_dim,
    qudits,
    vec_to_dm,
)

_BELL_AMPLITUDES = {
    "phi+": {(0, 0): 1 / sqrt(2), (1, 1): 1 / sqrt(2)},
    "phi-": {(0, 0): 1 / sqrt(2), (1, 1): -1 / sqrt(2)},
    "psi+": {(0, 1): 1 / sqrt(2), (1, 0): 1 / sqrt(2)},
    "psi-": {(0, 1): 1 / sqrt(2), (1, 0): -1 / sqrt(2)},
}


class ElementProvider:
    """Closed-form access to density-matrix elements.

    Subclasses implement element(bra, ket) on multi-indices and carry a
    SystemShape; the accessor must be Hermitian-symmetric.  The batch
    methods elements(bra_flat, ket_flat) and diagonal(flat) answer
    elementwise over arrays of flat indices (any array shape, dtype
    shape.index_dtype); the defaults here fall back to element() one
    query at a time, and the built-in providers answer with array
    lookups.  Providers are immutable and shareable.
    """

    shape: SystemShape

    def element(self, bra, ket):
        raise NotImplementedError

    def elements(self, bra_flat, ket_flat):
        """<bra|rho|ket> for arrays of flat indices, as a complex array."""
        dtype = self.shape.index_dtype
        bra_flat, ket_flat = np.broadcast_arrays(
            np.asarray(bra_flat, dtype=dtype), np.asarray(ket_flat, dtype=dtype))
        decode = self.shape.decode
        out = np.empty(bra_flat.shape, dtype=complex)
        for pos in np.ndindex(out.shape):
            out[pos] = self.element(decode(bra_flat[pos]), decode(ket_flat[pos]))
        return out

    def diagonal(self, flat):
        """Real diagonal elements <x|rho|x>, clipped at 0 against tiny negative noise."""
        return np.maximum(self.elements(flat, flat).real, 0.0)

    def to_dense(self, max_dim=None, validate=True):
        _check_dense_dim(self.shape.total, max_dim)
        return DensityMatrix(self.shape, self._dense_matrix(), validate=validate,
                             max_dim=max_dim)

    def _dense_matrix(self):
        idx = np.arange(self.shape.total)
        return self.elements(idx[:, None], idx[None, :])


class DenseProvider(ElementProvider):
    """Provider view of a dense DensityMatrix."""

    def __init__(self, rho):
        self.shape = rho.shape
        self._rho = rho
        self._diag = np.maximum(rho.mat.diagonal().real, 0.0)

    def element(self, bra, ket):
        return self._rho.element(bra, ket)

    def elements(self, bra_flat, ket_flat):
        return self._rho.mat[bra_flat, ket_flat]

    def diagonal(self, flat):
        return self._diag[flat]

    def to_dense(self, max_dim=None, validate=True):
        return self._rho


class MixtureProvider(ElementProvider):
    """sum_t w_t |psi_t><psi_t| + w_noise * I/total with sparse psi_t.

    Each pure term is an amplitude map {multi-index: amplitude}; any pure
    state given this way gets a provider for free.  The constructor also
    lays the terms out as tables over the sorted flat indices of their
    joint support plus one trailing zero column for every index off the
    support; batch queries find their columns by searchsorted.
    """

    def __init__(self, shape, terms, noise_weight=0.0):
        if not isinstance(shape, SystemShape):
            shape = SystemShape(shape)
        self.shape = shape
        self.terms = []
        for weight, amps in terms:
            if weight < 0:
                raise DomainError(f"mixture weight {weight} is negative")
            amps = {shape.validate_index(k): complex(v) for k, v in amps.items()}
            self.terms.append((float(weight), amps))
        if noise_weight < -1e-12:
            raise DomainError(f"noise weight {noise_weight} is negative")
        self.noise_weight = max(float(noise_weight), 0.0)
        total_w = sum(w for w, _ in self.terms) + self.noise_weight
        if abs(total_w - 1.0) > 1e-9:
            raise DomainError(f"mixture weights sum to {total_w}, expected 1")

        live = [(w, amps) for w, amps in self.terms if w != 0.0]
        place = [int(x) for x in shape.place_values()]
        flat = {mi: sum(x * p for x, p in zip(mi, place)) for _, amps in live for mi in amps}
        support = sorted(set(flat.values()))
        column = {x: i for i, x in enumerate(support)}
        # The sentinel `total` is no flat index, so every miss lands on it.
        self._keys = np.array(support + [shape.total], dtype=shape.index_dtype)
        self._amps = np.zeros((len(live), len(self._keys)), dtype=complex)
        for t, (_, amps) in enumerate(live):
            for mi, a in amps.items():
                self._amps[t, column[flat[mi]]] = a
        weights = np.array([w for w, _ in live]).reshape(-1, 1)
        self._weighted = weights * self._amps
        self._support_diag = (self._weighted * self._amps.conj()).real.sum(axis=0)

    def element(self, bra, ket):
        bra = self.shape.validate_index(bra)
        ket = self.shape.validate_index(ket)
        val = 0j
        for weight, amps in self.terms:
            if weight == 0.0:
                continue
            a = amps.get(bra)
            b = amps.get(ket)
            if a is not None and b is not None:
                val += weight * a * b.conjugate()
        if bra == ket:
            val += self.noise_weight / self.shape.total
        return val

    def _columns(self, flat):
        """Table column of each flat index; indices off the support get the zero column."""
        col = np.asarray(self._keys.searchsorted(flat))
        col[self._keys[col] != flat] = len(self._keys) - 1
        return col

    def elements(self, bra_flat, ket_flat):
        dtype = self.shape.index_dtype
        bra_flat = np.asarray(bra_flat, dtype=dtype)
        ket_flat = np.asarray(ket_flat, dtype=dtype)
        val = (self._weighted[:, self._columns(bra_flat)]
               * self._amps[:, self._columns(ket_flat)].conj()).sum(axis=0)
        return val + np.where(bra_flat == ket_flat, self.noise_weight / self.shape.total, 0.0)

    def diagonal(self, flat):
        flat = np.asarray(flat, dtype=self.shape.index_dtype)
        val = self._support_diag[self._columns(flat)] + self.noise_weight / self.shape.total
        return np.maximum(val, 0.0)

    def _dense_matrix(self):
        total = self.shape.total
        keys = self._keys[:-1]
        block = np.zeros((len(keys), len(keys)), dtype=complex)
        for weighted, amps in zip(self._weighted[:, :-1], self._amps[:, :-1]):
            block += np.outer(weighted, amps.conj())
        mat = np.zeros((total, total), dtype=complex)
        mat[np.ix_(keys, keys)] = block
        mat[np.diag_indices(total)] += self.noise_weight / total
        return mat


class FlippedProvider(ElementProvider):
    """View of a provider with every label flipped j -> d-1-j.

    On flat indices the flip is x -> total-1-x.
    """

    def __init__(self, inner):
        self.shape = inner.shape
        self._d = inner.shape.uniform_dim
        self._inner = inner

    def element(self, bra, ket):
        d = self._d
        return self._inner.element(
            tuple(d - 1 - x for x in bra), tuple(d - 1 - x for x in ket)
        )

    def _flip(self, flat):
        return (self.shape.total - 1) - np.asarray(flat, dtype=self.shape.index_dtype)

    def elements(self, bra_flat, ket_flat):
        return self._inner.elements(self._flip(bra_flat), self._flip(ket_flat))

    def diagonal(self, flat):
        return self._inner.diagonal(self._flip(flat))


def as_provider(state):
    """Uniform element access for DensityMatrix or provider inputs."""
    if isinstance(state, ElementProvider):
        return state
    if isinstance(state, DensityMatrix):
        return DenseProvider(state)
    raise DomainError(f"cannot read matrix elements from {type(state).__name__}")


def _vector_from_amplitudes(shape, amps):
    vec = np.zeros(shape.total, dtype=complex)
    for mi, a in amps.items():
        vec[shape.encode(mi)] = a
    return StateVector(shape, vec)


def ghz_amplitudes(n, d=2):
    """Amplitude map of the n-qudit GHZ state (1/sqrt d) sum_i |i>^n."""
    if n < 2 or d < 2:
        raise DomainError(f"GHZ state needs n >= 2 and d >= 2, got n={n}, d={d}")
    return {(i,) * n: 1 / sqrt(d) for i in range(d)}


def dicke_amplitudes(n, m, d=2):
    """Amplitude map of the generalised n-qudit m-Dicke state.

    For d = 2 this is the usual equal superposition of all basis states
    with m excitations; for d > 2 the superposition additionally runs
    over the excitation levels j = 0..d-2, each term carrying |j+1> on
    the m chosen subsystems and |j> elsewhere.
    """
    if not 1 <= m <= n - 1:
        raise DomainError(f"Dicke parameter m must satisfy 1 <= m <= n-1, got m={m}, n={n}")
    if d < 2:
        raise DomainError(f"local dimension must be >= 2, got {d}")
    norm = 1 / sqrt(comb(n, m) * (d - 1))
    amps = {}
    for j in range(d - 1):
        for alpha in combinations(range(n), m):
            mi = tuple(j + 1 if s in alpha else j for s in range(n))
            amps[mi] = norm
    return amps


def ghz_state(n, d=2):
    return _vector_from_amplitudes(qudits(n, d), ghz_amplitudes(n, d))


def dicke_state(n, m, d=2):
    return _vector_from_amplitudes(qudits(n, d), dicke_amplitudes(n, m, d))


def w_state(n, d=2):
    """The W state; coincides with the m = 1 Dicke state."""
    return dicke_state(n, 1, d)


def bell_state(label):
    """Two-qubit Bell state; label in {phi+, phi-, psi+, psi-}."""
    if label not in _BELL_AMPLITUDES:
        raise DomainError(f"unknown Bell label {label!r}")
    return _vector_from_amplitudes(qudits(2, 2), _BELL_AMPLITUDES[label])


def basis_product_state(labels, dims=None, d=2):
    """Computational-basis product vector |labels>."""
    labels = tuple(int(x) for x in labels)
    shape = SystemShape(dims) if dims is not None else qudits(len(labels), d)
    return _vector_from_amplitudes(shape, {labels: 1.0})


def maximally_mixed(shape):
    if not isinstance(shape, SystemShape):
        shape = SystemShape(shape)
    return DensityMatrix(shape, np.eye(shape.total) / shape.total, validate=False)


def smolin_state():
    """Four-qubit Smolin state: equal mixture of the GHZ projector and its
    three two-site bit-flipped variants."""
    shape = qudits(4, 2)
    mat = np.zeros((16, 16), dtype=complex)
    for pair in ((), (0, 1), (0, 2), (0, 3)):
        amps = {}
        for base, val in ghz_amplitudes(4, 2).items():
            flipped = tuple(1 - x if s in pair else x for s, x in enumerate(base))
            amps[flipped] = val
        vec = _vector_from_amplitudes(shape, amps)
        mat += 0.25 * np.outer(vec.amp, vec.amp.conj())
    return DensityMatrix(shape, mat)


def mix_white_noise(rho, p):
    """p * rho + (1 - p)/total * identity."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing weight p={p} outside [0, 1]")
    total = rho.shape.total
    mat = p * rho.mat + (1.0 - p) * np.eye(total) / total
    return DensityMatrix(rho.shape, mat, validate=False)


def _check_simplex(*weights):
    if any(w < 0 for w in weights) or sum(weights) > 1.0 + 1e-12:
        raise DomainError(f"mixing weights {weights} outside the simplex")


def family_state(family, *, n=None, d=2, m=1, alpha=None, beta=0.0, p=None,
                 representation="dense"):
    """Parametric noise families, dense or as closed-form providers.

    family:
      ghz-iso    alpha * GHZ_d^n + (1-alpha)/d^n * I
      dicke-iso  p * D_m^n + (1-p)/d^n * I
      ghz-w      alpha * GHZ + beta * W + (1-alpha-beta)/2^n * I   (qubits)
      gmd        alpha * GHZ_d^n + beta * W_d^n + (1-alpha-beta)/d^n * I
    """
    if family == "ghz-iso":
        if n is None or alpha is None:
            raise DomainError("ghz-iso needs n and alpha")
        _check_simplex(alpha)
        terms = [(alpha, ghz_amplitudes(n, d))]
        noise = 1.0 - alpha
    elif family == "dicke-iso":
        if n is None or p is None:
            raise DomainError("dicke-iso needs n and p")
        _check_simplex(p)
        terms = [(p, dicke_amplitudes(n, m, d))]
        noise = 1.0 - p
    elif family == "ghz-w":
        if n is None or alpha is None:
            raise DomainError("ghz-w needs n and alpha (beta defaults to 0)")
        _check_simplex(alpha, beta)
        d = 2
        terms = [(alpha, ghz_amplitudes(n, 2)), (beta, dicke_amplitudes(n, 1, 2))]
        noise = 1.0 - alpha - beta
    elif family == "gmd":
        if n is None or alpha is None:
            raise DomainError("gmd needs n, d and alpha (beta defaults to 0)")
        _check_simplex(alpha, beta)
        terms = [(alpha, ghz_amplitudes(n, d)), (beta, dicke_amplitudes(n, 1, d))]
        noise = 1.0 - alpha - beta
    else:
        raise DomainError(f"unknown family {family!r}")

    provider = MixtureProvider(qudits(n, d), terms, noise)
    if representation == "provider":
        return provider
    if representation == "dense":
        return provider.to_dense()
    raise DomainError(f"unknown representation {representation!r}")


@dataclass(frozen=True)
class StateSpec:
    """Declarative reference-state request (used by make_state and the CLI)."""

    kind: str
    n: int = 0
    d: int = 2
    m: int = 1
    label: str = "phi+"
    labels: tuple = ()

    def __post_init__(self):
        kinds = {"ghz", "w", "dicke", "smolin", "bell", "basis-product"}
        if self.kind not in kinds:
            raise DomainError(f"unknown state kind {self.kind!r}; choose from {sorted(kinds)}")


def make_state(spec):
    """Construct the requested reference state.

    Pure kinds return a StateVector; the Smolin state is mixed and
    returns a DensityMatrix of rank 4.
    """
    if spec.kind == "ghz":
        return ghz_state(spec.n, spec.d)
    if spec.kind == "w":
        return w_state(spec.n, spec.d)
    if spec.kind == "dicke":
        return dicke_state(spec.n, spec.m, spec.d)
    if spec.kind == "smolin":
        return smolin_state()
    if spec.kind == "bell":
        return bell_state(spec.label)
    if spec.kind == "basis-product":
        return basis_product_state(spec.labels, d=spec.d)
    raise DomainError(f"unknown state kind {spec.kind!r}")


def random_pure_state(dim, rng):
    """Haar-uniform pure state amplitudes of the given dimension."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def pure_to_dm(psi_or_vec, shape=None):
    """|psi><psi| from a StateVector or a raw amplitude array."""
    if isinstance(psi_or_vec, StateVector):
        return vec_to_dm(psi_or_vec)
    if shape is None:
        raise DomainError("raw amplitudes need an explicit shape")
    return vec_to_dm(StateVector(shape, psi_or_vec))
