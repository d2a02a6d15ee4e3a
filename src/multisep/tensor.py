"""Dense complex linear algebra over tensor-product spaces.

States live on a composite Hilbert space H = H_0 ⊗ H_1 ⊗ ... ⊗ H_{n-1}
with per-subsystem dimensions d_i >= 2.  Computational-basis product
vectors are addressed by multi-indices (i_0, ..., i_{n-1}); subsystem 0
is the most significant digit of the flat index (big-endian), so e.g.
(1, 0) on a 3x3 system encodes to 1*3 + 0 = 3.

All operations are pure functions of their inputs; constructed objects
are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DomainError, ResourceError

# Hermiticity / trace / positivity validation tolerance for states.
STATE_TOL = 1e-9

# The one memory budget: bytes a dense step may hold at its peak,
# temporaries included.  Each step counts them and calls
# _check_dense_bytes before it allocates.
_DENSE_BYTES = 1 << 31

_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class SystemShape:
    """Subsystem dimension signature of a composite system."""

    dims: tuple[int, ...]

    def __init__(self, dims):
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if self.n < 1:
            raise DomainError("need at least one subsystem")
        if any(d < 2 for d in self.dims):
            raise DomainError(f"subsystem dimensions must be >= 2, got {self.dims}")

    @property
    def n(self):
        return len(self.dims)

    @property
    def total(self):
        return prod(self.dims)

    @property
    def uniform_dim(self):
        """Common local dimension, or DomainError if dimensions are mixed."""
        d = self.dims[0]
        if any(di != d for di in self.dims):
            raise DomainError(f"mixed local dimensions {self.dims}")
        return d

    @property
    def index_dtype(self):
        """Array dtype of flat indices: int64 while the total dimension fits
        in it, else object (exact Python ints), so huge shapes never
        overflow silently."""
        return np.int64 if self.total <= _INT64_MAX else object

    def place_values(self):
        """Array w with encode(mi) == sum_i mi[i] * w[i], dtype index_dtype."""
        w, acc = [], 1
        for d in reversed(self.dims):
            w.append(acc)
            acc *= d
        return np.array(w[::-1], dtype=self.index_dtype)

    def validate_index(self, mi):
        mi = tuple(int(x) for x in mi)
        if len(mi) != self.n:
            raise DomainError(f"multi-index {mi} has wrong length for {self.n} subsystems")
        for x, d in zip(mi, self.dims):
            if not 0 <= x < d:
                raise DomainError(f"label {x} out of range [0, {d}) in multi-index {mi}")
        return mi

    def encode(self, mi):
        """Flat index of the product basis vector |mi>, big-endian."""
        mi = self.validate_index(mi)
        x = 0
        for label, d in zip(mi, self.dims):
            x = x * d + label
        return x

    def decode(self, x):
        """Inverse of encode."""
        x = int(x)
        if not 0 <= x < self.total:
            raise DomainError(f"flat index {x} out of range [0, {self.total})")
        labels = []
        for d in reversed(self.dims):
            labels.append(x % d)
            x //= d
        return tuple(reversed(labels))

    def all_indices(self):
        """Iterate over every multi-index in encode order."""
        for x in range(self.total):
            yield self.decode(x)


def qubits(n):
    """Shape of n qubits."""
    return SystemShape((2,) * n)


def qudits(n, d):
    """Shape of n d-level systems."""
    return SystemShape((d,) * n)


def _check_dense_bytes(need, step):
    """ResourceError unless `need` bytes, what `step` (a description)
    holds at its peak, fit in the budget _DENSE_BYTES, read at call time."""
    if need > _DENSE_BYTES:
        raise ResourceError(
            f"{step} needs {need} bytes, over the budget of {_DENSE_BYTES} bytes")


class StateVector:
    """Normalised pure state on a composite system."""

    def __init__(self, shape, amplitudes, validate=True):
        if not isinstance(shape, SystemShape):
            shape = SystemShape(shape)
        _check_dense_bytes(16 * shape.total, f"a state vector of dimension {shape.total}")
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != shape.total:
            raise DomainError(
                f"amplitude count {amp.shape[0]} does not match total dimension {shape.total}"
            )
        if validate:
            norm = np.linalg.norm(amp)
            if abs(norm - 1.0) > STATE_TOL:
                raise DomainError(f"state vector norm {norm} is not 1 within {STATE_TOL}")
        self.shape = shape
        self.amp = amp
        self.amp.setflags(write=False)

    def amplitude(self, mi):
        return complex(self.amp[self.shape.encode(mi)])

    def __repr__(self):
        return f"StateVector(dims={self.shape.dims})"


class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix with a shape.

    Validation can be skipped for intermediate results (partial
    transposes and the like are not states).
    """

    def __init__(self, shape, entries, validate=True):
        if not isinstance(shape, SystemShape):
            shape = SystemShape(shape)
        # 16 bytes an entry, and with validation the conjugate and the
        # difference of the Hermiticity check, two more complex matrices
        total = shape.total
        _check_dense_bytes((3 if validate else 1) * 16 * total ** 2,
                           f"a dense {total} x {total} density matrix"
                           + (" with its validation" if validate else ""))
        mat = np.asarray(entries, dtype=complex)
        if mat.shape != (shape.total, shape.total):
            raise DomainError(
                f"matrix shape {mat.shape} does not match total dimension {shape.total}"
            )
        if validate:
            if np.max(np.abs(mat - mat.conj().T)) > STATE_TOL:
                raise DomainError("matrix is not Hermitian within tolerance")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > STATE_TOL:
                raise DomainError(f"trace {tr} is not 1 within {STATE_TOL}")
            evals = np.linalg.eigvalsh(mat)
            if evals[0] < -STATE_TOL:
                raise DomainError(f"minimal eigenvalue {evals[0]} below -{STATE_TOL}")
        self.shape = shape
        self.mat = mat
        self.mat.setflags(write=False)

    @classmethod
    def raw(cls, shape, entries):
        """Construct without invariant validation (intermediate results)."""
        return cls(shape, entries, validate=False)

    def element(self, bra, ket):
        """<bra|rho|ket> for multi-indices bra, ket."""
        return complex(self.mat[self.shape.encode(bra), self.shape.encode(ket)])

    def __repr__(self):
        return f"DensityMatrix(dims={self.shape.dims})"


def kron_all(factors):
    """Tensor product of a non-empty list of (rectangular) matrices."""
    factors = list(factors)
    if not factors:
        raise DomainError("kron_all needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    if out.ndim != 2:
        raise DomainError("kron_all factors must be matrices")
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        if f.ndim != 2:
            raise DomainError("kron_all factors must be matrices")
        out = np.kron(out, f)
    return out


def matrix_element(state, bra, ket):
    """<bra|rho|ket> for a DensityMatrix or any element provider.

    Accepts any object exposing .shape and .element(bra, ket).
    """
    if not hasattr(state, "element"):
        raise DomainError(f"{type(state).__name__} does not expose matrix elements")
    shape = state.shape
    shape.validate_index(bra)
    shape.validate_index(ket)
    return state.element(bra, ket)


def vec_to_dm(psi):
    """Rank-one density matrix |psi><psi| of a normalised state vector."""
    amp = psi.amp
    if np.linalg.norm(amp) < STATE_TOL:
        raise DomainError("cannot form a state from the zero vector")
    total = psi.shape.total
    _check_dense_bytes(16 * total ** 2, f"|psi><psi| of dimension {total}")
    return DensityMatrix(psi.shape, np.outer(amp, amp.conj()), validate=False)


def _as_tensor(rho):
    dims = rho.shape.dims
    return rho.mat.reshape(dims + dims)


def partial_trace(rho, systems):
    """Trace out the given subsystems (0-based labels).

    Tracing all subsystems is a scalar trace, not a reduced state, and is
    rejected here.
    """
    n = rho.shape.n
    systems = [int(s) for s in systems]
    if len(systems) != len(set(systems)):
        raise DomainError("subsystem labels must be distinct")
    systems = sorted(systems)
    if any(not 0 <= s < n for s in systems):
        raise DomainError(f"subsystem labels {systems} out of range for n={n}")
    if len(systems) == n:
        raise DomainError("cannot partial-trace every subsystem; use the scalar trace")
    if not systems:
        return rho

    t = _as_tensor(rho)
    nn = n
    for s in reversed(systems):
        t = np.trace(t, axis1=s, axis2=s + nn)
        nn -= 1
    keep = [d for i, d in enumerate(rho.shape.dims) if i not in systems]
    new_shape = SystemShape(keep)
    return DensityMatrix(new_shape, t.reshape(new_shape.total, new_shape.total), validate=False)


def _check_block(block, n):
    """Sorted labels of a transposition block: a non-empty proper subset
    of the n subsystems, each label once."""
    block = [int(s) for s in block]
    if not block:
        raise DomainError("transposition block must be non-empty")
    if len(block) != len(set(block)):
        raise DomainError(f"subsystem labels {block} must be distinct")
    block.sort()
    if any(not 0 <= s < n for s in block):
        raise DomainError(f"subsystem labels {block} out of range for n={n}")
    if len(block) == n:
        raise DomainError("transposing every subsystem is the full transpose; take a proper subset")
    return block


def partial_transpose(rho, block):
    """Transpose the given subsystem block; returns a plain matrix.

    The result is Hermitian and trace-one but in general not positive,
    so it is not wrapped as a DensityMatrix.
    """
    n = rho.shape.n
    block = _check_block(block, n)
    t = _as_tensor(rho)
    axes = list(range(2 * n))
    for s in block:
        axes[s], axes[s + n] = axes[s + n], axes[s]
    total = rho.shape.total
    return t.transpose(axes).reshape(total, total)


def hermitian_spectrum(mat, tol=STATE_TOL):
    """Ascending real eigenvalues of a Hermitian matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("spectrum needs a square matrix")
    if np.max(np.abs(mat - mat.conj().T)) > tol:
        raise DomainError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(mat)


def _flip_permutation(shape):
    d = shape.uniform_dim
    idx = np.array(
        [shape.encode(tuple(d - 1 - x for x in shape.decode(i))) for i in range(shape.total)]
    )
    return idx


def flip_all(state):
    """Generalised bit flip |j> -> |d-1-j> on every subsystem.

    Requires a uniform local dimension; involutive.
    """
    perm = _flip_permutation(state.shape)
    if isinstance(state, StateVector):
        out = np.empty_like(state.amp)
        out[perm] = state.amp
        return StateVector(state.shape, out, validate=False)
    if isinstance(state, DensityMatrix):
        out = np.empty_like(state.mat)
        out[np.ix_(perm, perm)] = state.mat
        return DensityMatrix(state.shape, out, validate=False)
    raise DomainError(f"cannot flip a {type(state).__name__}")


def permute_systems(rho, order):
    """Relabel subsystems of a density matrix: new position i holds old
    subsystem order[i]."""
    n = rho.shape.n
    order = [int(x) for x in order]
    if sorted(order) != list(range(n)):
        raise DomainError(f"{order} is not a permutation of 0..{n - 1}")
    t = _as_tensor(rho)
    axes = order + [o + n for o in order]
    new_shape = SystemShape([rho.shape.dims[o] for o in order])
    return DensityMatrix(
        new_shape, t.transpose(axes).reshape(new_shape.total, new_shape.total), validate=False
    )


def apply_local_unitaries(rho, unitaries):
    """Conjugate a state by a product of local unitaries U_0 ⊗ U_1 ⊗ ...

    This realises the basis freedom of probe-state criteria: evaluating a
    criterion on the rotated state is equivalent to rotating the probe.
    """
    if len(unitaries) != rho.shape.n:
        raise DomainError("need one unitary per subsystem")
    u = kron_all(unitaries)
    if u.shape != (rho.shape.total, rho.shape.total):
        raise DomainError("local unitary dimensions do not match the state")
    return DensityMatrix(rho.shape, u @ rho.mat @ u.conj().T, validate=False)


def _fmt(x):
    return f"{x:.17g}"


def save_density_matrix(rho, path):
    """Write the JSON density-matrix format with 17-significant-digit decimals."""
    re_rows = [",".join(_fmt(v) for v in row) for row in rho.mat.real]
    im_rows = [",".join(_fmt(v) for v in row) for row in rho.mat.imag]
    parts = ['{"dims": [%s],' % ",".join(str(d) for d in rho.shape.dims)]
    parts.append('"re": [%s],' % ",".join("[%s]" % r for r in re_rows))
    parts.append('"im": [%s]}' % ",".join("[%s]" % r for r in im_rows))
    text = "\n".join(parts) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_density_matrix(path, validate=True):
    """Read the JSON density-matrix format and validate state invariants."""
    with open(path) as fh:
        data = json.load(fh)
    for key in ("dims", "re", "im"):
        if key not in data:
            raise DomainError(f"density-matrix file is missing '{key}'")
    shape = SystemShape(data["dims"])
    mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    return DensityMatrix(shape, mat, validate=validate)
