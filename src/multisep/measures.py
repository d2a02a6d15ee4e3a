"""Genuine-multipartite-entanglement concurrence and Schmidt rank.

The pure-state concurrence is exact; for mixed states only the
criterion-based lower bound is computed here -- the convex-roof value
itself involves an optimisation over all pure-state decompositions and
is not computable in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

from .criteria import gme_value
from .errors import DomainError
from .partitions import k_partition_rows
# iter_bipartitions is not called here; perfbench/tracer.py wraps it on this module.
from .partitions import iter_bipartitions  # noqa: F401
from .tensor import StateVector

SV_TOL = 1e-9

# Bytes one chunk of cgme_pure's cuts may hold: per cut and amplitude,
# its float and integer position and its (complex) matrix entry.
_CUT_BYTES = 1 << 26


@dataclass(frozen=True)
class MeasureResult:
    name: str
    value: float
    exact: bool


def _amplitude_matrix(psi, side_a):
    """Amplitudes reshaped to (dim A, dim B) for the bipartition side_a."""
    n = psi.shape.n
    side_a = sorted(set(int(x) for x in side_a))
    if not side_a or len(side_a) == n:
        raise DomainError("cut must be a proper non-empty subsystem subset")
    if any(not 0 <= s < n for s in side_a):
        raise DomainError(f"cut labels {side_a} out of range for n={n}")
    side_b = [s for s in range(n) if s not in side_a]
    tensor = psi.amp.reshape(psi.shape.dims)
    tensor = tensor.transpose(side_a + side_b)
    da = prod(psi.shape.dims[s] for s in side_a)
    return tensor.reshape(da, -1)


def cgme_pure(psi):
    """GME-concurrence of a pure state.

    min over all bipartitions of sqrt(2 (1 - purity of the reduction));
    zero exactly when the state is biseparable.  The cuts come from
    k_partition_rows(n, 2) in chunks of at most _CUT_BYTES of amplitude
    matrices and their index arrays.  Per chunk, the cuts whose side holding subsystem 0 has the
    same dimension dA share one scatter of the amplitudes into a stack of
    (dA, D / dA) matrices M, and the purity of each reduction is
    |M M^+|_F^2 / tr(M M^+)^2, taken on the smaller side; dividing by the
    squared norm keeps the input's rounding out of 1 - purity.  A real
    amplitude vector is kept real.
    """
    if not isinstance(psi, StateVector):
        raise DomainError("cgme_pure takes a pure StateVector")
    n = psi.shape.n
    if n < 2:
        raise DomainError("need at least two subsystems")
    dims = np.array(psi.shape.dims)
    total = psi.shape.total
    amp = psi.amp if psi.amp.imag.any() else psi.amp.real
    digits = psi.shape.decode_rows(np.arange(total)).astype(float)
    purity = 0.0
    for rows in k_partition_rows(n, 2, rows=max(1, _CUT_BYTES // (32 * total))):
        (weight_a, dim_a), (weight_b, dim_b) = (_place_values(rows == side, dims)
                                                for side in (0, 1))
        # [r, x]: the flat position of amplitude x in cut r's (dA, dB)
        # matrix, by a float matmul, exact on these integers
        where = (digits @ (weight_a * dim_b[:, None] + weight_b).T).T.astype(np.int64)
        for da in np.unique(dim_a):
            cut = dim_a == da
            mats = np.empty((int(cut.sum()), total), dtype=amp.dtype)
            mats[np.arange(len(mats))[:, None], where[cut]] = amp
            mats = mats.reshape(len(mats), da, total // da)
            if da > total // da:  # reduce on the smaller side
                mats = mats.transpose(0, 2, 1)
            reduced = mats @ mats.conj().transpose(0, 2, 1)
            norm = np.trace(reduced, axis1=1, axis2=2).real  # |psi|^2, 1 up to rounding
            purity = max(purity, float(np.max(
                np.einsum("rij,rij->r", reduced, reduced.conj()).real / norm ** 2)))
    return MeasureResult("cgme", sqrt(max(2.0 * (1.0 - purity), 0.0)), exact=True)


def _place_values(side, dims):
    """Per row of the boolean (cuts, n) array `side`: the big-endian place
    value of each subsystem within the side's amplitude index (0 off the
    side), and the side's dimension."""
    factors = np.where(side, dims, 1)
    after = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]  # [r, i]: prod over j >= i
    return np.where(side, after // factors, 0), after[:, 0]


def cgme_lower_bound(state, probe):
    """Criterion-based lower bound 2 * gme_value, clamped at zero.

    Valid for any state; on pure inputs it never exceeds cgme_pure.  The
    probe is exposed so callers can pre-rotate the state (or pick the
    best computational probe) themselves.
    """
    report = gme_value(state, probe)
    return MeasureResult("cgme_lower_bound", max(0.0, 2.0 * report.value), exact=False)


def schmidt_rank(psi, cut, tol=SV_TOL):
    """Number of non-negligible Schmidt coefficients across the cut."""
    if not isinstance(psi, StateVector):
        raise DomainError("schmidt_rank takes a pure StateVector")
    sv = np.linalg.svd(_amplitude_matrix(psi, cut), compute_uv=False)
    return int(np.sum(sv > tol))
