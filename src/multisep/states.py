"""Reference states, noise families, and closed-form element providers.

Dense construction is fine up to a few thousand dimensions; the matrix-
element criteria, however, only ever touch a handful of elements, so the
noise families are also available as closed-form providers that answer
element queries without building the matrix (usable at n = 20 and
beyond).  Every family here is of the form

    rho = sum_t w_t |psi_t><psi_t| + w_noise * I / total

with sparse pure-state amplitude maps psi_t, which is exactly what the
provider evaluates.

A sweep over the mixing weights builds the family once:
MixtureProvider.reweighted gives the same mixture at new weights,
sharing the amplitude maps, the support tables and a store of the
criteria's query plans, so each point only reweights the tables.  It
takes a batch of points as well, P rows of weights: the provider then
has a points axis (`points` = P) and answers every query with a
leading axis of length P, one entry per point, each the float that
point gets alone.  So the criteria read a whole batch of a scan in one
pass.  A provider that was never reweighted has no points axis and no
plan store, and the criteria stream its queries in bounded chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, sqrt

import numpy as np

from .errors import DomainError
from .tensor import (
    DensityMatrix,
    StateVector,
    SystemShape,
    _check_block,
    _check_dense_bytes,
    qudits,
)

_BELL_AMPLITUDES = {
    "phi+": {(0, 0): 1 / sqrt(2), (1, 1): 1 / sqrt(2)},
    "phi-": {(0, 0): 1 / sqrt(2), (1, 1): -1 / sqrt(2)},
    "psi+": {(0, 1): 1 / sqrt(2), (1, 0): 1 / sqrt(2)},
    "psi-": {(0, 1): 1 / sqrt(2), (1, 0): -1 / sqrt(2)},
}


class ElementProvider:
    """Closed-form access to density-matrix elements.

    A provider carries a SystemShape and answers batches:
    elements(bra_flat, ket_flat) and diagonal(flat) elementwise over
    arrays of flat indices (any array shape, dtype shape.index_dtype);
    the accessor must be Hermitian-symmetric.  The criteria read
    elements only this way.  The built-in providers answer with array
    lookups, and their element(bra, ket) on multi-indices is the scalar
    form of that answer.  A subclass may implement element() alone:
    the batch defaults here then call it one query at a time.
    Providers are immutable and shareable.

    `plans` is the store in which the criteria keep their query plans
    (the flat-index arrays they pass to elements and diagonal), shared
    by every provider of one sweep; None, the default, makes them stream.
    `points` is the length of the points axis of a batch of states
    (MixtureProvider.reweighted), None for a single state.
    """

    shape: SystemShape
    plans = None
    points = None

    @property
    def lead(self):
        """The points axis as a shape: () for a single state, else (P,)."""
        return () if self.points is None else (self.points,)

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

    def to_dense(self, validate=True):
        single_state(self, "a dense matrix")
        total = self.shape.total  # counted as DensityMatrix counts it, before it is built
        _check_dense_bytes((3 if validate else 1) * 16 * total ** 2,
                           f"a dense {total} x {total} density matrix"
                           + (" with its validation" if validate else ""))
        return DensityMatrix(self.shape, self._dense_matrix(), validate=validate)

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

    def to_dense(self, validate=True):
        return self._rho


class MixtureProvider(ElementProvider):
    """sum_t w_t |psi_t><psi_t| + w_noise * I/total with sparse psi_t.

    Each pure term is an amplitude map {multi-index: amplitude}; any pure
    state given this way gets a provider for free.  The constructor also
    lays the terms out as tables over the sorted flat indices of their
    joint support plus one trailing zero column for every index off the
    support; batch queries find their columns by one searchsorted (see
    _columns).  `live` holds the indices of the terms the tables cover,
    those with a nonzero weight (at some point of a batch).
    """

    def __init__(self, shape, terms, noise_weight=0.0):
        if not isinstance(shape, SystemShape):
            shape = SystemShape(shape)
        self.shape = shape
        terms = list(terms)
        weights, noise_weight = _checked_weights([w for w, _ in terms], noise_weight)
        self.terms = []
        self._flats = []
        for weight, (_, amps) in zip(weights, terms):
            flat, keys = _encode(shape, list(amps))
            values = [complex(v) for v in amps.values()]
            self.terms.append((weight, dict(zip(keys, values))))
            self._flats.append((flat, values))
        self._tabulate(tuple(t for t, w in enumerate(weights) if w != 0.0))
        self._set_weights(noise_weight)

    def _tabulate(self, live):
        """Tables over the joint support of the terms `live` (indices into
        self.terms), the terms with a nonzero weight."""
        self.live = live
        support = sorted({x for t in live for x in self._flats[t][0].tolist()})
        # The sentinel `total` is no flat index, so every miss lands on it.
        self._keys = np.array(support + [self.shape.total], dtype=self.shape.index_dtype)
        # Each key k and k + 1, sorted: the number r of these at or below
        # x is odd exactly when x is a key, the (r // 2)-th
        keys = self._keys[:-1]
        self._edges = np.sort(np.concatenate([keys, keys + 1]))
        self._column_of = np.full(len(self._edges) + 1, len(support), dtype=np.intp)
        self._column_of[1::2] = np.arange(len(support))
        self._amps = np.zeros((len(live), len(self._keys)), dtype=complex)
        for row, t in zip(self._amps, live):
            flat, values = self._flats[t]
            row[self._keys.searchsorted(flat)] = values
        self._conj_amps = self._amps.conj()

    def _set_weights(self, noise_weight):
        """Tables at the weights of self.terms, each a weight or, for a
        batch of P points, a tuple of P, and noise_weight, a float or an
        array of P.  The weighted table has the live terms on its first
        axis, then the points; the diagonal table is the diagonal at each
        support index (and the noise alone in the zero column), clipped
        at 0."""
        self.noise_weight = noise_weight
        self._noise = noise_weight / float(self.shape.total)
        weights = np.array([self.terms[t][0] for t in self.live], dtype=float)
        # (live terms, K), or (live terms, P, K) with a points axis
        self._weighted = weights.reshape((-1,) + self.lead + (1,)) * self._per_term(self._amps)
        support_diag = _term_sum(self._weighted * self._per_term(self._conj_amps)).real
        self._diag = np.maximum(support_diag + self._per_point(self._noise, self._keys), 0.0)

    def reweighted(self, weights, noise_weight):
        """The same mixture at term weights `weights` (one per term, in
        order) and noise weight `noise_weight`, checked as the constructor
        checks them.

        Given P rows of term weights and a sequence of P noise weights, it
        is a batch of P points instead: the copy has a points axis
        (`points` = P), and elements / diagonal answer with a leading
        axis of length P, each entry the float that a copy reweighted to
        that point alone gives.  Its tables then hold P rows (about
        K (16 T + 8) bytes a point over K support indices and T live
        terms), so a caller sizes its batches by bytes; a scan keeps each
        batch within a fixed byte bound (see criteria.point_bytes).  A
        term is live if it is nonzero at any point of the batch.  A point
        with fewer nonzero terms then shares the larger tables: its
        elements and diagonals stay the same floats, but the PPT step
        works on the larger support (low_rank_partial_transpose), which
        can change the last bits of its spectrum, so a scan ends a batch
        where the nonzero terms change.

        The copy shares the amplitude maps and, while the same terms are
        live, the support tables; a change in the live terms builds the
        tables anew.  It also shares the query-plan store (`plans`) of
        this provider, or starts one: the criteria record their index
        arrays once per sweep and replay them at every point or batch.
        The store lives as long as the providers that share it.
        """
        if not hasattr(noise_weight, "__len__"):
            return self._copy(None, *self._checked(weights, noise_weight))
        points = len(noise_weight)
        if not points or len(weights) != points:
            raise DomainError(f"a batch needs as many weight rows ({len(weights)}) as "
                              f"noise weights ({points}), at least one")
        rows = [self._checked(w, v) for w, v in zip(weights, noise_weight)]
        return self._copy(points, list(zip(*(row for row, _ in rows))),
                          np.array([v for _, v in rows]))

    def _checked(self, weights, noise_weight):
        """_checked_weights of one point, which also needs one weight per term."""
        weights, noise_weight = _checked_weights(weights, noise_weight)
        if len(weights) != len(self.terms):
            raise DomainError(
                f"{len(weights)} weights given for a mixture of {len(self.terms)} terms")
        return weights, noise_weight

    def _copy(self, points, weights, noise_weight):
        """reweighted's copy at checked weights, one per term: a float, or
        with P points a tuple of P, and noise_weight, a float or an array
        of P."""
        out = object.__new__(MixtureProvider)
        vars(out).update(vars(self), points=points,
                         terms=[(w, amps) for w, (_, amps) in zip(weights, self.terms)])
        live = tuple(t for t, w in enumerate(weights) if (w if points is None else any(w)))
        if live != self.live:
            out._tabulate(live)
        out._set_weights(noise_weight)
        out.plans = {} if self.plans is None else self.plans
        return out

    def element(self, bra, ket):
        single_state(self, "element")
        return complex(self.elements(self.shape.encode(bra), self.shape.encode(ket)))

    def _columns(self, flat):
        """Table column of each flat index; indices off the support get the zero column."""
        return self._column_of[self._edges.searchsorted(flat, side="right")]

    def _per_point(self, value, flat):
        """value, a float or an array of P, shaped to broadcast against an
        answer for flat."""
        return value if self.points is None else value.reshape((-1,) + (1,) * np.ndim(flat))

    def _per_term(self, table):
        """A (live terms, ...) table shaped to broadcast against the
        weighted table, (live terms, 1, ...) with a points axis."""
        return table if self.points is None else table[:, None]

    def elements(self, bra_flat, ket_flat):
        dtype = self.shape.index_dtype
        bra_flat = np.asarray(bra_flat, dtype=dtype)
        ket_flat = np.asarray(ket_flat, dtype=dtype)
        if bra_flat.shape != ket_flat.shape:
            # the tables' leading term axis would misalign them
            bra_flat, ket_flat = np.broadcast_arrays(bra_flat, ket_flat)
        val = _term_sum(self._weighted[..., self._columns(bra_flat)]
                        * self._per_term(self._conj_amps[:, self._columns(ket_flat)]))
        # in place: val is a fresh array, and a batch's is P times as large
        val += np.where(bra_flat == ket_flat, self._per_point(self._noise, bra_flat), 0.0)
        return val

    def diagonal(self, flat):
        return self._diag[..., self._columns(np.asarray(flat, dtype=self.shape.index_dtype))]

    def transpose_support(self, block):
        """(S, where): the sorted flat indices S on which the partial
        transpose of L = sum_t w_t |psi_t><psi_t| on `block` lives, and
        where[i, j], the position in S to which L[x_i, x_j] moves, x_i
        the support indices.

        L lives on the s support indices.  Partial transposition moves
        L[x, y] to (x', y'), x' being x with its block digits taken from
        y and y' being y with its block digits taken from x, so it
        vanishes off S x S, where S is the set of every x'.  S joins each
        of the |O| distinct off-block digit patterns of the support with
        each of its |B| distinct block patterns, so s <= |S| = |O| |B|.
        |S| is found in O(s), and the PPT step's peak at one point,
        48 |S|^2 bytes (see criteria.ppt_check), is checked before
        `where` is built.  Both depend on the tables only, not on the
        weights.
        """
        block = _check_block(block, self.shape.n)
        keys = self._keys[:-1]
        place = self.shape.place_values()[block]
        dims = np.array(self.shape.dims, dtype=self.shape.index_dtype)[block]
        in_block = ((keys[:, None] // place) % dims * place).sum(axis=1)
        off, off_of = np.unique(keys - in_block, return_inverse=True)
        on, on_of = np.unique(in_block, return_inverse=True)
        size = len(off) * len(on)
        _check_dense_bytes(
            48 * size ** 2,
            f"the partial transpose on the support, |S| = {size} indices ({len(off)} "
            f"off-block times {len(on)} block patterns of {len(keys)} support indices), "
            "with its spectrum")
        # every off + on is distinct: they fill disjoint digits
        joined = (off[:, None] + on[None, :]).ravel()
        order = np.argsort(joined)
        rank = np.empty(size, dtype=np.intp)
        rank[order] = np.arange(size)
        # x' = x off the block + y on it; y' of (x, y) is x' of (y, x)
        where = rank.reshape(len(off), len(on))[off_of[:, None], on_of[None, :]]
        return joined[order], where

    def low_rank_partial_transpose(self, block, support=None):
        """(S, M) with rho^{T_block} = M on S x S + noise_weight/total * I,
        for S of transpose_support(block).

        `support` is what transpose_support(block) returned on these
        tables, if the caller kept it.  With a points axis M is a stack
        of P blocks, (P, |S|, |S|), on one S and one scatter index, and
        the PPT step's 48 |S|^2 bytes a point are checked for all P
        before M is built.
        """
        support, where = self.transpose_support(block) if support is None else support
        size = len(support)
        if self.points is not None:
            _check_dense_bytes(
                48 * size ** 2 * self.points,
                f"the partial transposes at {self.points} points on the support, "
                f"|S| = {size} indices, with their spectra")
        mat = np.zeros(self.lead + (size, size), dtype=complex)
        mat[..., where, where.T] = self._low_rank()
        return support, mat

    def _low_rank(self):
        """L = sum_t w_t |psi_t><psi_t| on the support, s x s (a stack of
        P with a points axis)."""
        return np.moveaxis(self._weighted[..., :-1], 0, -1) @ self._amps[:, :-1].conj()

    def _dense_matrix(self):
        total = self.shape.total
        keys = self._keys[:-1]
        mat = np.zeros((total, total), dtype=complex)
        mat[np.ix_(keys, keys)] = self._low_rank()
        mat[np.diag_indices(total)] += self.noise_weight / total
        return mat


def _term_sum(terms):
    """Sum over the leading term axis, in term order, so that each point
    of a batch gets the float it gets alone.  NumPy reduces the term axis
    of a single state's (terms, N) table the same way from zero, which
    differs from this only in the sign of a zero: the callers add 0.0 or
    the noise next, which makes every zero +0.0."""
    if not len(terms):
        return np.zeros(terms.shape[1:], dtype=terms.dtype)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _checked_weights(weights, noise_weight):
    """(weights as floats, noise weight clipped at 0) of a mixture, or
    DomainError if one is negative or NaN or they do not sum to 1."""
    # written so that a NaN weight fails every check
    for weight in weights:
        if not weight >= 0:
            raise DomainError(f"mixture weight {weight} is negative or NaN")
    weights = [float(w) for w in weights]
    if not noise_weight >= -1e-12:
        raise DomainError(f"noise weight {noise_weight} is negative or NaN")
    noise_weight = max(float(noise_weight), 0.0)
    total_w = sum(weights) + noise_weight
    if not abs(total_w - 1.0) <= 1e-9:
        raise DomainError(f"mixture weights sum to {total_w}, expected 1")
    return weights, noise_weight


def _encode(shape, multi_indices):
    """(flat indices as an array of shape.index_dtype, multi-indices as
    tuples of ints) of a list of multi-indices, checked as
    shape.validate_index checks them, in array operations."""
    try:
        labels = np.array(multi_indices, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):
        labels = None
    if (labels is None or labels.shape != (len(multi_indices), shape.n)
            or not ((labels >= 0) & (labels < np.array(shape.dims))).all()):
        # one index at a time, so that the error names the first bad one
        labels = np.array([shape.validate_index(mi) for mi in multi_indices],
                          dtype=np.int64).reshape(len(multi_indices), shape.n)
    return (labels * shape.place_values()).sum(axis=1), list(map(tuple, labels.tolist()))


class FlippedProvider(ElementProvider):
    """View of a provider with every label flipped, j -> d_i-1-j on site i.

    On flat indices the flip is x -> total-1-x.  A points axis of the
    inner provider passes through.
    """

    def __init__(self, inner):
        self.shape = inner.shape
        self.points = inner.points
        self._inner = inner

    def element(self, bra, ket):
        single_state(self, "element")
        return complex(self.elements(self.shape.encode(bra), self.shape.encode(ket)))

    def _flip(self, flat):
        return (self.shape.total - 1) - np.asarray(flat, dtype=self.shape.index_dtype)

    def elements(self, bra_flat, ket_flat):
        return self._inner.elements(self._flip(bra_flat), self._flip(ket_flat))

    def diagonal(self, flat):
        return self._inner.diagonal(self._flip(flat))


def single_state(prov, what):
    """DomainError if prov holds a batch of points (see
    MixtureProvider.reweighted): `what` reads a single state."""
    if prov.points is not None:
        raise DomainError(f"{what} reads a single state, not a batch of {prov.points} points")


def as_provider(state):
    """Uniform element access for DensityMatrix or provider inputs."""
    if isinstance(state, ElementProvider):
        return state
    if isinstance(state, DensityMatrix):
        return DenseProvider(state)
    raise DomainError(f"cannot read matrix elements from {type(state).__name__}")


def _vector_from_amplitudes(shape, amps):
    _check_dense_bytes(16 * shape.total, f"a state vector of dimension {shape.total}")
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
    count = comb(n, m)
    # one row per m-subset alpha, in the order of combinations(range(n), m)
    alpha = np.fromiter(chain.from_iterable(combinations(range(n), m)), dtype=np.intp,
                        count=count * m).reshape(count, m)
    excited = np.zeros((count, n), dtype=np.intp)
    excited[np.arange(count)[:, None], alpha] = 1
    keys = []
    for j in range(d - 1):
        # the multi-indices as tuples of Python ints, level j on the rest
        keys += zip(*(excited + j).T.tolist())
    return dict.fromkeys(keys, norm)


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
    total = shape.total
    # the complex identity and its quotient
    _check_dense_bytes(32 * total ** 2, f"the maximally mixed {total} x {total} state")
    return DensityMatrix(shape, np.eye(total, dtype=complex) / total, validate=False)


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
    # at its peak: p * rho and the sum, complex, and the scaled float64 identity
    _check_dense_bytes(40 * total ** 2, f"white noise on a dense {total} x {total} state")
    mat = p * rho.mat + (1.0 - p) * np.eye(total) / total
    return DensityMatrix(rho.shape, mat, validate=False)


def _check_simplex(*weights):
    # written so that a NaN weight fails it too
    if not (all(w >= 0 for w in weights) and sum(weights) <= 1.0 + 1e-12):
        raise DomainError(f"mixing weights {weights} outside the simplex")


def family_weights(family, *, n=None, alpha=None, beta=0.0, p=None):
    """(term weights, noise weight) of a noise family (see family_state),
    one weight per amplitude map in the family's order, checked against
    the simplex.  family_state and the scan/threshold sweeps take their
    weights from here."""
    if family == "ghz-iso":
        if n is None or alpha is None:
            raise DomainError("ghz-iso needs n and alpha")
        _check_simplex(alpha)
        return (alpha,), 1.0 - alpha
    if family == "dicke-iso":
        if n is None or p is None:
            raise DomainError("dicke-iso needs n and p")
        _check_simplex(p)
        return (p,), 1.0 - p
    if family in ("ghz-w", "gmd"):
        if n is None or alpha is None:
            needs = "n and alpha" if family == "ghz-w" else "n, d and alpha"
            raise DomainError(f"{family} needs {needs} (beta defaults to 0)")
        _check_simplex(alpha, beta)
        return (alpha, beta), 1.0 - alpha - beta
    raise DomainError(f"unknown family {family!r}")


def _family_amplitudes(family, n, d, m):
    """(shape, amplitude maps) of a family that family_weights accepted."""
    if family == "ghz-iso":
        return qudits(n, d), [ghz_amplitudes(n, d)]
    if family == "dicke-iso":
        return qudits(n, d), [dicke_amplitudes(n, m, d)]
    if family == "ghz-w":
        return qudits(n, 2), [ghz_amplitudes(n, 2), dicke_amplitudes(n, 1, 2)]
    return qudits(n, d), [ghz_amplitudes(n, d), dicke_amplitudes(n, 1, d)]


def family_state(family, *, n=None, d=2, m=1, alpha=None, beta=0.0, p=None,
                 representation="dense"):
    """Parametric noise families, dense (within the dense budget) or as
    closed-form providers.

    family:
      ghz-iso    alpha * GHZ_d^n + (1-alpha)/d^n * I
      dicke-iso  p * D_m^n + (1-p)/d^n * I
      ghz-w      alpha * GHZ + beta * W + (1-alpha-beta)/2^n * I   (qubits)
      gmd        alpha * GHZ_d^n + beta * W_d^n + (1-alpha-beta)/d^n * I
    """
    weights, noise = family_weights(family, n=n, alpha=alpha, beta=beta, p=p)
    shape, amplitudes = _family_amplitudes(family, n, d, m)
    provider = MixtureProvider(shape, zip(weights, amplitudes), noise)
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
