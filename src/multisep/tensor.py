"""Dense complex linear algebra over tensor-product spaces.

States live on a composite Hilbert space H = H_0 ⊗ H_1 ⊗ ... ⊗ H_{n-1}
with per-subsystem dimensions d_i >= 2.  Computational-basis product
vectors are addressed by multi-indices (i_0, ..., i_{n-1}); subsystem 0
is the most significant digit of the flat index (big-endian), so e.g.
(1, 0) on a 3x3 system encodes to 1*3 + 0 = 3.  SystemShape holds this
layout: encode / decode for one index, encode_rows / decode_rows for
arrays of them, and every module converts through it.

All operations are pure functions of their inputs; constructed objects
are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

# Bytes that parsing a density-matrix file and building its matrix hold
# at their peak, per byte of the file, at most for the layout
# save_density_matrix writes: the parsed lists of numbers (about 12 a
# byte for numbers of three characters) and, when most entries are "0"
# (2 bytes with the comma, 4 D^2 in all), the lists, the real and
# imaginary arrays and the complex matrix.  DensityMatrix then counts
# its own validation.
_LOAD_BYTES_PER_FILE_BYTE = 12


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

    # cached: the criteria's kernels read it at every batch of queries
    @cached_property
    def total(self):
        return prod(self.dims)

    @property
    def uniform_dim(self):
        """Common local dimension, or DomainError if dimensions are mixed."""
        d = self.dims[0]
        if any(di != d for di in self.dims):
            raise DomainError(f"mixed local dimensions {self.dims}")
        return d

    @cached_property
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

    def encode_rows(self, labels):
        """Flat indices, of index_dtype, of the rows of an (m, n) array
        (or sequence) of multi-indices, checked as validate_index checks
        them; a bad row raises validate_index's error for the first one."""
        try:
            rows = np.array(labels, dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            rows = None
        if (rows is None or rows.shape != (len(labels), self.n)
                or not ((rows >= 0) & (rows < np.array(self.dims))).all()):
            # one row at a time, so that the error names the first bad one
            rows = np.array([self.validate_index(mi) for mi in labels],
                            dtype=np.int64).reshape(len(labels), self.n)
        return (rows * self.place_values()).sum(axis=1)

    def decode_rows(self, flat):
        """Inverse of encode_rows: the (m, n) int64 labels of m flat indices."""
        flat = np.asarray(flat, dtype=self.index_dtype).reshape(-1)
        bad = (flat < 0) | (flat >= self.total)
        if bad.any():
            self.decode(flat[bad][0])  # raises decode's error for the first one
        labels = flat[:, None] // self.place_values() % np.array(self.dims)
        return labels.astype(np.int64, copy=False)

    def all_indices(self):
        """Iterate over every multi-index in encode order."""
        for x in range(self.total):
            yield self.decode(x)


# Shapes are immutable, so each of these is built once and shared.
# heisenberg_hamiltonian decodes through qubits(n) at every block build,
# and a new shape there each time grows the peak RSS of a long run.
@lru_cache
def qubits(n):
    """Shape of n qubits."""
    return SystemShape((2,) * n)


@lru_cache
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
            # written so that NaN entries fail it too
            if not abs(norm - 1.0) <= STATE_TOL:
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
            # the checks are written so that NaN entries fail them too
            if not np.max(np.abs(mat - mat.conj().T)) <= STATE_TOL:
                raise DomainError("matrix is not Hermitian within tolerance")
            tr = np.trace(mat).real
            if not abs(tr - 1.0) <= STATE_TOL:
                raise DomainError(f"trace {tr} is not 1 within {STATE_TOL}")
            evals = np.linalg.eigvalsh(mat)
            if not evals[0] >= -STATE_TOL:
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

    # each trace holds its result and the one before, the first and
    # largest (D / d)^2 entries, d the first subsystem traced out
    total = rho.shape.total
    _check_dense_bytes(2 * 16 * (total // rho.shape.dims[systems[-1]]) ** 2,
                       f"the partial trace of a dense {total} x {total} state")
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
    total = rho.shape.total
    _check_dense_bytes(16 * total ** 2,
                       f"the partial transpose of a dense {total} x {total} state")
    t = _as_tensor(rho)
    axes = list(range(2 * n))
    for s in block:
        axes[s], axes[s + n] = axes[s + n], axes[s]
    return t.transpose(axes).reshape(total, total)


def hermitian_spectrum(mat, tol=STATE_TOL):
    """Ascending real eigenvalues of a Hermitian matrix, or of each in a
    stack of them, shape (..., m, m)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DomainError("spectrum needs a square matrix")
    if not np.max(np.abs(mat - np.swapaxes(mat, -1, -2).conj())) <= tol:
        raise DomainError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(mat)


def flip_all(state):
    """Generalised bit flip |j> -> |d-1-j> on every subsystem.

    Requires a uniform local dimension; involutive.  On flat indices the
    flip is x -> total-1-x, so it reverses the amplitudes, or the rows
    and columns of a density matrix, into a copy.
    """
    state.shape.uniform_dim  # DomainError for mixed local dimensions
    total = state.shape.total
    if isinstance(state, StateVector):
        _check_dense_bytes(16 * total, f"the flip of a state vector of dimension {total}")
        return StateVector(state.shape, state.amp[::-1].copy(), validate=False)
    if isinstance(state, DensityMatrix):
        _check_dense_bytes(16 * total ** 2, f"the flip of a dense {total} x {total} state")
        return DensityMatrix(state.shape, state.mat[::-1, ::-1].copy(), validate=False)
    raise DomainError(f"cannot flip a {type(state).__name__}")


def permute_systems(rho, order):
    """Relabel subsystems of a density matrix: new position i holds old
    subsystem order[i]."""
    n = rho.shape.n
    order = [int(x) for x in order]
    if sorted(order) != list(range(n)):
        raise DomainError(f"{order} is not a permutation of 0..{n - 1}")
    total = rho.shape.total
    _check_dense_bytes(16 * total ** 2,
                       f"the permuted subsystems of a dense {total} x {total} state")
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
    Factor i must be a d_i x d_i matrix, d_i the dimension of subsystem
    i, with U^dagger U within 1e-10 of the identity in every entry;
    DomainError otherwise.
    """
    if len(unitaries) != rho.shape.n:
        raise DomainError("need one unitary per subsystem")
    factors = [np.asarray(u) for u in unitaries]
    for i, (u, d) in enumerate(zip(factors, rho.shape.dims)):
        if u.shape != (d, d):
            raise DomainError(
                f"local unitary {i} has shape {u.shape}, subsystem {i} needs ({d}, {d})")
        if not np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10:  # NaN fails too
            raise DomainError(f"local unitary {i} is not unitary within 1e-10")
    # U, U rho and the result, 48 D^2 bytes, and BLAS's workspace of a
    # few MB: 64 D^2 bytes are counted
    total = rho.shape.total
    _check_dense_bytes(64 * total ** 2, f"local unitaries on a dense {total} x {total} state")
    u = kron_all(factors)
    left = u @ rho.mat
    return DensityMatrix(rho.shape, left @ np.conjugate(u, out=u).T, validate=False)


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
    """Read the JSON density-matrix format and validate state invariants.

    What parsing and building the matrix hold, _LOAD_BYTES_PER_FILE_BYTE
    times the file's size, is checked against the dense budget before
    the file is read (ResourceError above it).
    """
    with open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        _check_dense_bytes(_LOAD_BYTES_PER_FILE_BYTE * size,
                           f"loading the {size}-byte density-matrix file {path!r}")
        data = json.load(fh)
    for key in ("dims", "re", "im"):
        if key not in data:
            raise DomainError(f"density-matrix file is missing '{key}'")
    shape = SystemShape(data["dims"])
    # each parsed list is dropped once it is an array, and the arrays once
    # they are the matrix (re + 1j im, summed in place), before
    # DensityMatrix counts what it holds
    re = np.asarray(data.pop("re"), dtype=float)
    im = np.asarray(data.pop("im"), dtype=float)
    mat = np.empty(np.broadcast_shapes(re.shape, im.shape), dtype=complex)
    np.multiply(im, 1j, out=mat)
    mat += re
    del re, im
    return DensityMatrix(shape, mat, validate=validate)
