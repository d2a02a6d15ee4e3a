"""Heisenberg lattices, thermal states, and entanglement-gap witnesses.

The Hamiltonian of a set of spin-1/2 sites with nearest-neighbour
couplings is used as its own entanglement witness: every k-separable
state has energy at least E_ksep, so any state with energy below that
bound is certified k-inseparable (the k = 2 interval is the GME gap).
A SpinHamiltonian holds the lattice and couplings.  H commutes with the
parity prod_i Z_i, and at Jx = Jy also with the total magnetisation, so
its spectrum is solved sector by sector: one real-symmetric eigensolve
per popcount (Jx = Jy) or popcount-parity sector, each block built
bitwise on the sector's basis indices.  E_0, Z, the thermal energy
tr(rho_kT H) = sum_i p_i E_i and a ground vector come from those
blocks, so none of them needs a 2^n x 2^n matrix; the Gibbs and ground
states are scattered together from them for callers who ask for a
density matrix.  Small site-block Hamiltonians give E_ksep: the
least energy over product states of the canonical k-partitions, found
from seeded random product states by sweeps of exact block ground-state
updates (each block's Hamiltonian plus the mean field of its
neighbours' Bloch vectors), Anderson-accelerated on those Bloch vectors
and guarded so that only sweeps that do not raise the energy are kept.
The couplings and the field are uniform, so H commutes with every
automorphism of the lattice, and all partitions in one orbit of the
lattice's rotations and reflections (Lattice.automorphisms) have the
same product-state minimum: the search covers one partition per orbit,
the least restricted-growth row of k_partition_rows, with `restarts`
random starts each.  Partitions with the same ordered block sizes are
swept together as one batch.  Every energy reported is that of an
actual product state found by a local search, so E_ksep is an upper
bound on the true k-separable minimum, not a certified value.  The
detection slack guards only against a search that has not fully
converged; if the search misses the global minimum of some orbit, a
state with energy between the true minimum and E_ksep is reported
k-inseparable although it is not.

References: H. Q. Lin, PRB 42, 6561 (1990) (exact diagonalisation by
conserved sectors); G. Toth, PRA 71, 010301 (2005) (energy witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .applications import PAULI
from .errors import DomainError, ResourceError
from .partitions import DEFAULT_ENUMERATION_CAP, Partition, k_partition_rows, orbit_representatives
# iter_k_partitions is not called here; perfbench/tracer.py wraps it on this module.
from .partitions import iter_k_partitions  # noqa: F401
from .tensor import DensityMatrix, StateVector, _check_dense_bytes, kron_all, qubits
# hermitian_spectrum is not called here; perfbench/tracer.py wraps it on this module.
from .tensor import hermitian_spectrum  # noqa: F401

DEFAULT_OPT_SLACK = 1e-6
_DEGENERACY_TOL = 1e-9  # eigenvalues within this of E_0 span the ground manifold

# Bytes of block and effective Hamiltonians and per-restart sweep state
# one batch of partitions may hold; a partition that alone needs more
# runs by itself.
_CHUNK_BYTES = 1 << 26

_DEPTH = 6  # Anderson history per row, in sweeps


@dataclass(frozen=True)
class Lattice:
    """Sites and nearest-neighbour edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise DomainError(f"a lattice needs at least one site, got n={n}")
        norm_edges = []
        seen = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise DomainError(f"edge ({i},{j}) invalid for n={n} sites")
            key = frozenset((i, j))
            if key in seen:
                raise DomainError(f"duplicate edge ({i},{j})")
            seen.add(key)
            norm_edges.append((min(i, j), max(i, j)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm_edges))

    @classmethod
    def chain(cls, n):
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def ring(cls, n):
        if n < 3:
            raise DomainError("a ring needs at least 3 sites")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    def adjacency(self):
        """The n x n adjacency matrix, 1.0 on the edges and 0.0 elsewhere."""
        adj = np.zeros((self.n, self.n))
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = 1.0
        return adj

    def automorphisms(self):
        """Site permutations that map the edges onto themselves, one row p
        per permutation (site i -> p[i]), the identity first.

        Only the n rotations i -> (i + s) mod n and the n reflections
        i -> (s - i) mod n are tried, with no graph search: a ring keeps
        its dihedral group, a chain the identity and its reflection, any
        other lattice at least the identity.  The rows that survive form
        a group, a subgroup of the lattice's automorphism group.
        """
        n = self.n
        sites = np.arange(n)
        shifts = sites[:, None]
        candidates = (shifts + sites) % n
        if n > 2:  # else every reflection is a rotation
            candidates = np.concatenate([candidates, (shifts - sites) % n])
        adj = self.adjacency()
        # p maps edges onto edges iff adj[p[a], p[b]] = adj[a, b] for all a, b
        kept = (adj[candidates[:, :, None], candidates[:, None, :]] == adj).all(axis=(1, 2))
        return candidates[kept]


@dataclass(frozen=True)
class HeisenbergParams:
    """Couplings in units of Jx, plus external field h."""

    jx: float = 1.0
    jy: float = 1.0
    jz: float = 1.0
    h: float = 0.0

    @classmethod
    def from_gamma(cls, gamma, h=0.0):
        """Anisotropy preset Jx = 1, Jy = 1 - gamma, Jz = 1 - 2*gamma."""
        if not 0.0 <= gamma <= 1.0:
            raise DomainError(f"gamma={gamma} outside [0, 1]")
        return cls(1.0, 1.0 - gamma, 1.0 - 2.0 * gamma, h)


def heisenberg_hamiltonian(lattice, params, indices=None):
    """Spin-1/2 Hamiltonian
    H = 1/2 sum_<ij> (Jx XX + Jy YY + Jz ZZ) + h sum_i Z_i, as float64:
    the dense 2^n x 2^n matrix, or with `indices` (sorted distinct basis
    indices of a set that H maps into itself, such as a conserved sector)
    its block on those basis states, rows and columns in that order.

    Built bitwise in the computational basis: ZZ and the field sit on
    the diagonal, and XX + YY flips bits i and j of |x> with amplitude
    (Jx - Jy z_i z_j)/2, where z = +1 for bit 0 and -1 for bit 1; every
    entry is real.  The flipped state's row is found by searchsorted in
    the index set; a flip with nonzero amplitude that leaves the set is a
    DomainError.  Before anything of size dim is allocated, the bytes the
    build holds at its peak are checked against the dense budget
    (ResourceError above it): 8 dim (dim + n + 10 |E|), the matrix and,
    per row, n site signs and at most ten 8-byte values per edge.
    """
    n = lattice.n
    edges = np.array(lattice.edges, dtype=np.int64).reshape(-1, 2)
    if indices is not None:
        x = np.asarray(indices, dtype=np.int64).reshape(-1)
        if not len(x) or x[0] < 0 or x[-1] >= 2 ** n or np.any(np.diff(x) <= 0):
            raise DomainError(f"indices must be sorted distinct basis indices of {n} sites")
    dim = 2 ** n if indices is None else len(x)
    _check_dense_bytes(8 * dim * (dim + n + 10 * len(edges)),
                       f"the {dim} x {dim} Hamiltonian of {n} sites")
    if indices is None:
        x = np.arange(dim)
    z = 1.0 - 2.0 * qubits(n).decode_rows(x)
    zz = z[:, edges[:, 0]] * z[:, edges[:, 1]]  # [r, e]: z_i z_j of edge e in state x[r]
    h_mat = np.zeros((dim, dim))
    diag = np.zeros(dim)
    for e in range(len(edges)):
        diag += 0.5 * params.jz * zz[:, e]
    for i in range(n):
        diag += params.h * z[:, i]
    h_mat[np.arange(dim), np.arange(dim)] = diag
    flipped = x[:, None] ^ ((1 << (n - 1 - edges[:, 0])) | (1 << (n - 1 - edges[:, 1])))
    amp = 0.5 * (params.jx - params.jy * zz)
    row = np.minimum(np.searchsorted(x, flipped), dim - 1)
    inside = x[row] == flipped
    if np.any(amp[~inside]):
        raise DomainError("H maps the indices outside themselves")
    h_mat[row[inside], np.nonzero(inside)[0]] = amp[inside]
    return h_mat


def _symmetric_eigh(mat):
    """np.linalg.eigh of a real symmetric matrix.  LAPACK's divide and
    conquer (dsyevd) can fail on an ordinary symmetric matrix; it is then
    retried by relatively robust representations (SciPy's dsyevr)."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError:
        from scipy.linalg import eigh
        return eigh(mat, driver="evr")


@dataclass(frozen=True)
class SpinHamiltonian:
    """heisenberg_hamiltonian(lattice, params) kept as its lattice and
    couplings.  Its dense matrix, site-block Hamiltonians and sector
    spectrum (all built by heisenberg_hamiltonian) are cached on first
    use."""

    lattice: Lattice
    params: HeisenbergParams
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.lattice.n

    @property
    def shape(self):
        return (2 ** self.n, 2 ** self.n)

    def dense(self):
        """The full 2^n x 2^n matrix."""
        return self.block(range(self.n))

    def block(self, sites):
        """H_A of the sites A in the order given (the first most
        significant): the edges inside A and the field on A.  Blocks with
        the same relabelled sub-lattice share one build."""
        sites = tuple(int(q) for q in sites)
        if len(set(sites)) != len(sites) or not all(0 <= q < self.n for q in sites):
            raise DomainError(f"block {sites} is not a set of sites of n={self.n}")
        pos = {q: i for i, q in enumerate(sites)}
        sub = Lattice(len(sites), [(pos[i], pos[j]) for i, j in self.lattice.edges
                                   if i in pos and j in pos])
        if sub not in self._built:
            mat = heisenberg_hamiltonian(sub, self.params)
            mat.flags.writeable = False  # shared by every caller
            self._built[sub] = mat
        return self._built[sub]

    def spectrum(self):
        """(energies, sectors), cached read-only: all 2^n eigenvalues
        ascending, and one (indices, eigenvalues, eigenvectors) per
        conserved sector, ordered by its label: the sector's sorted basis
        indices, the ascending eigenvalues of H's block on them and that
        block's real eigenvector columns, rows in the order of `indices`.

        H commutes with the parity prod_i Z_i, and where Jx = Jy also with
        the total magnetisation, so the sectors are the basis states of
        one popcount (Jx = Jy) or one popcount parity.  Each block is
        built by heisenberg_hamiltonian on the sector's indices and
        diagonalised on its own (_symmetric_eigh), so no 2^n x 2^n matrix
        is built.  Before any sector is built, the bytes the solve holds
        at its peak are checked against the dense budget (ResourceError
        above it): 8 sum_i m_i^2 for every sector's eigenvectors, kept,
        32 m^2 for the eigensolve of the largest, m states (its block,
        LAPACK's copy and dsyevd's 2 m^2 doubles of workspace), and
        8 (n + 10 |E|) for each basis state.  Within a degenerate level
        the eigenvectors are whichever LAPACK returns."""
        if "spectrum" not in self._built:
            n, params = self.n, self.params
            magnetisation = params.jx == params.jy  # XX + YY then keeps the popcount
            largest = comb(n, n // 2) if magnetisation else 2 ** (n - 1)
            # sum of m_i^2: the C(n, k)^2 sum to C(2n, n), two parity halves to 2 (2^(n-1))^2
            squares = comb(2 * n, n) if magnetisation else 2 * largest ** 2
            _check_dense_bytes(
                8 * squares + 32 * largest ** 2 + 8 * 2 ** n * (n + 10 * len(self.lattice.edges)),
                f"the largest conserved sector of H ({largest} states) with the "
                "eigenvectors of every sector")
            label = qubits(n).decode_rows(np.arange(2 ** n)).sum(axis=1)
            if not magnetisation:
                label &= 1
            sectors = []
            for value in np.unique(label):
                indices = np.flatnonzero(label == value)
                evals, evecs = _symmetric_eigh(
                    heisenberg_hamiltonian(self.lattice, params, indices))
                for a in (indices, evals, evecs):
                    a.flags.writeable = False  # shared by every caller
                sectors.append((indices, evals, evecs))
            energies = np.sort(np.concatenate([evals for _, evals, _ in sectors]))
            energies.flags.writeable = False
            self._built["spectrum"] = energies, tuple(sectors)
        return self._built["spectrum"]


def _spin_count(ham):
    if not isinstance(ham, SpinHamiltonian):
        raise DomainError(f"expected a SpinHamiltonian(lattice, params), not {type(ham).__name__}")
    return ham.n


def _check_temperature(kT):
    if kT is not None and not kT > 0:  # NaN fails too
        raise DomainError(f"temperature kT={kT} must be positive")


def _weights(energies, e0, kT):
    """Unnormalised Gibbs weights exp(-(E - E_0)/kT) of `energies`; for
    kT None, 1 on the ground level (within _DEGENERACY_TOL of E_0) and 0
    elsewhere."""
    if kT is None:
        return (energies <= e0 + _DEGENERACY_TOL).astype(float)
    return np.exp(-(energies - e0) / kT)


def partition_function(ham, kT):
    """Z = sum_i exp(-E_i / kT) of the SpinHamiltonian `ham`."""
    _spin_count(ham)
    if kT is None:
        raise DomainError("partition_function needs a temperature kT > 0, got None")
    _check_temperature(kT)
    energies = ham.spectrum()[0]
    return float(np.sum(np.exp(-(energies - energies[0]) / kT)) * np.exp(-energies[0] / kT))


def thermal_energy(ham, kT):
    """tr(rho H) of rho = thermal_state(ham, kT), as sum_i p_i E_i over
    the spectrum: the Gibbs average, or for kT None the mean of the
    ground level.  No matrix is built."""
    _spin_count(ham)
    _check_temperature(kT)
    energies = ham.spectrum()[0]
    weights = _weights(energies, energies[0], kT)
    return float(weights @ energies / weights.sum())


def thermal_state(ham, kT):
    """Gibbs state exp(-H/kT)/Z of the SpinHamiltonian `ham`; kT None
    gives the kT -> 0+ limit, the equal mixture over the (possibly
    degenerate) ground manifold, eigenvalues within _DEGENERACY_TOL of E_0.
    The matrix is block diagonal over the conserved sectors: each
    sector's V diag(p) V^T is scattered into place."""
    n = _spin_count(ham)
    _check_temperature(kT)
    # the float64 matrix and DensityMatrix's complex copy of it, 8 + 16
    # bytes an entry; the sector products scattered into the matrix
    # before the copy take at most 6 bytes an entry
    _check_dense_bytes(24 * 4 ** n, f"the {2 ** n} x {2 ** n} Gibbs state")
    energies, sectors = ham.spectrum()
    norm = _weights(energies, energies[0], kT).sum()
    mat = np.zeros(ham.shape)
    for indices, evals, evecs in sectors:
        weights = _weights(evals, energies[0], kT) / norm
        kept = weights > 0
        mat[np.ix_(indices, indices)] = (evecs[:, kept] * weights[kept]) @ evecs[:, kept].T
    return DensityMatrix(qubits(n), mat, validate=False)


def ground_state_dm(ham):
    """The kT -> 0+ limit of thermal_state, the ground-manifold mixture."""
    return thermal_state(ham, None)


def ground_vector(ham):
    """A ground state of `ham` that does not depend on the basis the
    eigensolver picks in a degenerate ground level: P e_x / |P e_x|, where
    P projects onto the levels within _DEGENERACY_TOL of E_0 and x is the
    basis index with the largest P_xx, the smallest such x among those
    within 1e-9 of the largest.  P_xx = sum_v v_x^2 over the ground
    vectors v of x's sector, and P e_x lies in that sector too."""
    n = _spin_count(ham)
    energies, sectors = ham.spectrum()
    grounds = [evecs[:, evals <= energies[0] + _DEGENERACY_TOL] for _, evals, evecs in sectors]
    diag = np.zeros(2 ** n)
    owner = np.empty(2 ** n, dtype=int)  # the sector of each basis index
    for s, ((indices, _, _), ground) in enumerate(zip(sectors, grounds)):
        diag[indices] = np.einsum("ij,ij->i", ground, ground)
        owner[indices] = s
    x = np.flatnonzero(diag >= diag.max() - 1e-9)[0]
    indices, ground = sectors[owner[x]][0], grounds[owner[x]]
    vec = np.zeros(2 ** n)
    vec[indices] = ground @ ground[np.searchsorted(indices, x)]
    return StateVector(qubits(n), vec / np.linalg.norm(vec))


@dataclass(frozen=True)
class ProductMinimum:
    """Least product-state energy found, and the partitions (orbit
    representatives) whose search had not stopped when it hit max_iter."""

    energy: float
    nonconverged: tuple = ()

    @property
    def converged(self):
        return not self.nonconverged


@lru_cache(maxsize=None)
def _site_paulis(size):
    """Row 3q + a: sigma_{a+1} on site q of a block of `size` sites,
    flattened (applications.PAULI, whose sigma_2 = -Y is harmless here,
    as every mean-field term is quadratic in it)."""
    eye = PAULI[0]
    out = np.array([
        kron_all([eye] * q + [PAULI[a]] + [eye] * (size - q - 1)).reshape(-1)
        for q in range(size) for a in (1, 2, 3)
    ])
    out.flags.writeable = False  # cached and shared
    return out


def _ground_pairs(heff):
    """Least eigenvalue and a ground vector of each Hermitian matrix in
    the batch heff, from one batched np.linalg.eigh.

    LAPACK can fail to converge on an ordinary finite Hermitian matrix
    (LinAlgError).  The batch is then solved matrix by matrix, and a
    matrix that fails again goes through its real-symmetric embedding
    [[Re, -Im], [Im, Re]]: that has the same eigenvalues, each twice,
    and a ground vector (u, v) of it gives the ground vector u + i v.
    """
    try:
        evals, evecs = np.linalg.eigh(heff)
        return evals[:, 0], evecs[..., 0]
    except np.linalg.LinAlgError:
        pass
    values = np.empty(len(heff))
    vectors = np.empty(heff.shape[:2], dtype=complex)
    for r, mat in enumerate(heff):
        try:
            evals, evecs = np.linalg.eigh(mat)
            values[r], vectors[r] = evals[0], evecs[:, 0]
        except np.linalg.LinAlgError:
            d = len(mat)
            evals, evecs = np.linalg.eigh(np.block([[mat.real, -mat.imag],
                                                    [mat.imag, mat.real]]))
            values[r], vectors[r] = evals[0], evecs[:d, 0] + 1j * evecs[d:, 0]
    return values, vectors


def _chunk_len(sizes, restarts):
    """Partitions with these block sizes that fit one batch in
    _CHUNK_BYTES, counted per restart (per sweep row): the real block
    Hamiltonians of its blocks of two or more sites, gathered once, the
    complex effective Hamiltonian of its largest such block (one block is
    updated at a time, and single sites need none), its block-upper
    adjacency, and its Bloch vectors with their Anderson history.  Each
    block's per-partition stack lives only while it is gathered, and is
    no larger than that block's rows."""
    n = sum(sizes)
    dims = [4 ** s for s in sizes if s > 1]
    per_row = 8 * sum(dims) + 16 * max(dims, default=0) + 8 * (n * n + 3 * n * (2 * _DEPTH + 6))
    return max(1, _CHUNK_BYTES // (restarts * per_row))


class _BlockSweep:
    """The sweep map G of _sweep_batch over the rows of one batch, with
    every per-row operand gathered once: for each block of two or more
    sites its Hamiltonian, and the block-upper adjacency upper[r, i, l],
    1 on the edges (i, l) of row r's partition whose l lies in a later
    block than i, in block-concatenated site order.  compact(keep) drops
    the rows that stopped."""

    def __init__(self, ham, rows, restarts):
        sizes = np.bincount(rows[0]).tolist()
        self.cuts = np.cumsum([0] + sizes).tolist()
        self.coupling = 0.5 * np.array([ham.params.jx, ham.params.jy, ham.params.jz])
        self.paulis = [_site_paulis(s) for s in sizes]
        row_part = np.repeat(np.arange(len(rows)), restarts)
        orders = np.argsort(rows, axis=1, kind="stable")
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        adj = ham.lattice.adjacency()
        upper = adj[orders[:, :, None], orders[:, None, :]] * (block_of[:, None] < block_of)
        self.upper = upper[row_part]
        self.hams = [None if b - a == 1 else
                     np.stack([ham.block(order[a:b]) for order in orders])[row_part]
                     for a, b in zip(self.cuts[:-1], self.cuts[1:])]
        # a single site's H_A = h Z enters its update as part of its field
        self.shift = np.zeros((len(block_of), 3))
        self.shift[np.array(sizes)[block_of] == 1, 2] = ham.params.h

    def compact(self, keep):
        self.upper = self.upper[keep]
        self.hams = [None if h is None else h[keep] for h in self.hams]

    def bloch_vectors(self, j, states):
        """<sigma_a> on each site of block j in the block states `states`."""
        rho = states.conj()[:, :, None] * states[:, None, :]
        return (rho.reshape(len(states), -1) @ self.paulis[j].T).real.reshape(len(states), -1, 3)

    def __call__(self, x):
        """G(x), flattened per row, and the energy of its product state."""
        m = len(x)
        g = x.reshape(m, -1, 3).copy()
        later = self.coupling * (self.upper @ g)  # the field of later blocks, from x
        field = later + self.shift
        energy = np.zeros(m)
        for j, (a, b) in enumerate(zip(self.cuts[:-1], self.cuts[1:])):
            if a:  # add the field of earlier blocks, already updated
                f = field[:, a:b] + self.coupling * (
                    self.upper[:, :a, a:b].transpose(0, 2, 1) @ g[:, :a])
            else:
                f = field[:, a:b]
            if self.hams[j] is None:
                # f holds h z too, so heff = f . sigma: ground energy -|f|,
                # Bloch vector -f/|f|
                f = f[:, 0]
                norm = np.sqrt(np.einsum("ra,ra->r", f, f))
                energy -= norm
                g[:, a] = f / -np.where(norm > 0, norm, 1.0)[:, None]
                g[norm == 0, a, 2] = 1.0  # where f = 0 eigh returns |0>, Bloch vector +z
            else:
                d = self.hams[j].shape[-1]
                heff = (f.reshape(m, -1) @ self.paulis[j]).reshape(m, d, d)
                heff += self.hams[j]
                ground, vectors = _ground_pairs(heff)
                energy += ground
                g[:, a:b] = self.bloch_vectors(j, vectors)
        # each inter-block edge once: the ground energies counted it with
        # the later block's Bloch vector from x, the state holds G(x)'s
        energy -= np.einsum("ria,ria->r", later, g)
        return g.reshape(m, -1), energy


def _sweep_batch(ham, rows, starts, tol, max_iter):
    """Anderson-accelerated block ground-state sweeps, one sweep row per
    (partition, restart), for partitions that share their ordered block
    sizes, given as k_partition_rows rows (site i of p in block rows[p, i]).

    A product state enters block A's update only through its neighbours'
    Bloch vectors: A takes the ground vector of
    heff_A = H_A + sum_{i in A} f_i . sigma^i, where
    f_i^a = J_a/2 sum_{l not in A, (i, l) an edge} <sigma_a^l>.  A single
    site has H_A = h Z, so heff_A = b . sigma with b = f_i + h z: its
    ground energy is -|b| and its Bloch vector -b/|b| (+z where b = 0,
    the vector eigh returns there), with no eigensolve; a larger block
    takes one batched eigh (_ground_pairs).  Bloch vectors are held in
    each partition's block-concatenated site order (a stable argsort of
    its row), so block j is a fixed slice.  Its field is that of the
    later blocks, from x, computed for every site at once by one matmul
    with the block-upper adjacency, plus that of the earlier blocks,
    already updated.  The per-row block Hamiltonians and adjacency are
    gathered once per batch (_BlockSweep) and compacted with the rows.

    The energy of the product state is sum_B <H_B> + 1/2 sum_{inter-block
    edges} sum_a J_a <sigma_a^i><sigma_a^l>.  It is read in one pass per
    sweep: E = sum_j ground_j - sum_{i in B_j, l in B_j', j' > j}
    J_a/2 <sigma_a^i>_new <sigma_a^l>_old, as ground_j counted each edge
    to a later block with that block's Bloch vector from x.

    One sweep is a map G from Bloch vectors x to the Bloch vectors and
    energy of the product state it builds.  A row's first _DEPTH sweeps
    are plain ones, x = G(x) of the last; after them, each next x
    extrapolates the row's last _DEPTH accepted (x, G(x)) pairs by
    Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 1715 (2011)).
    An extrapolated sweep whose energy is above the row's best is
    rejected: the row's history is cleared, and its next sweep is a
    plain one from the last accepted state, which cannot raise the
    energy.  Every energy kept is that of an actual product state.  A
    row stops once max |G(x) - x| <= tol, or once its best energy has
    not changed at all over the last _DEPTH sweeps (a block with a
    degenerate ground level has no settled Bloch vectors).

    starts[j] holds block j's start states, shape (P, restarts, dA_j).
    Returns each partition's least energy over its restarts and whether
    all its restarts stopped within max_iter sweeps.  Stopped rows leave
    the batch, which is compacted.
    """
    restarts = starts[0].shape[1]
    sweep = _BlockSweep(ham, rows, restarts)
    x = np.concatenate([sweep.bloch_vectors(j, s.reshape(-1, s.shape[-1]))
                        for j, s in enumerate(starts)], axis=1).reshape(len(rows) * restarts, -1)
    live = np.arange(len(x))  # the rows still sweeping
    final = np.full(len(x), np.inf)
    stopped = np.zeros(len(x), dtype=bool)
    best = np.full(len(x), np.inf)
    recent = np.full((len(x), _DEPTH), np.inf)  # best over the last _DEPTH sweeps
    d_res = np.zeros((len(x), _DEPTH, x.shape[1]))  # residual and G differences
    d_out = np.zeros_like(d_res)
    prev_res, prev_out = np.zeros_like(x), x
    follows = np.zeros(len(x), dtype=bool)  # the last sweep was accepted
    mixing = np.zeros(len(x), dtype=bool)  # x was extrapolated
    eye = np.eye(_DEPTH)
    for it in range(max_iter):
        out, energy = sweep(x)
        res = out - x
        ok = ~mixing | (energy <= best)
        slot = it % _DEPTH
        grow = ok & follows
        d_res[:, slot] = np.where(grow[:, None], res - prev_res, 0.0)
        d_out[:, slot] = np.where(grow[:, None], out - prev_out, 0.0)
        if ok.all():
            prev_res, prev_out = res, out
        else:  # a rejected row clears its history and keeps its last accepted state
            d_res[~ok] = d_out[~ok] = 0.0
            prev_res = np.where(ok[:, None], res, prev_res)
            prev_out = np.where(ok[:, None], out, prev_out)
            energy = np.where(ok, energy, np.inf)
        best = np.minimum(best, energy)
        fell = recent[:, slot] - best
        recent[:, slot] = best
        done = ok & ((np.abs(res).max(axis=1) <= tol) | (fell <= 0))

        # the next x: extrapolated where the last two sweeps were accepted
        # and the plain start is over, else the last accepted G(x)
        mixing = grow & (it + 1 >= _DEPTH) & ~done
        follows = ok
        x = prev_out.copy()
        if mixing.any():
            dr, do = d_res[mixing], d_out[mixing]
            gram = dr @ dr.transpose(0, 2, 1)
            reg = 1e-12 * np.trace(gram, axis1=1, axis2=2) + 1e-300
            gram += reg[:, None, None] * eye
            gamma = np.linalg.solve(gram, dr @ prev_res[mixing][:, :, None])
            x[mixing] -= (gamma.transpose(0, 2, 1) @ do)[:, 0]
        if done.any():
            final[live[done]] = best[done]
            stopped[live[done]] = True
            keep = ~done
            (x, live, best, recent, d_res, d_out, prev_res, prev_out, follows, mixing) = (
                a[keep] for a in (x, live, best, recent, d_res, d_out, prev_res, prev_out,
                                  follows, mixing))
            sweep.compact(keep)
            if not live.size:
                break
    final[live] = best
    return final.reshape(-1, restarts).min(axis=1), stopped.reshape(-1, restarts).all(axis=1)


def min_ksep_energy(ham, k, restarts=32, tol=1e-10, seed=0, max_iter=5000,
                    lower_bound=None):
    """Minimal energy over k-separable states (upper bound by local search).

    `ham` is a SpinHamiltonian.  Minimises <psi|H|psi> over product
    states of one canonical k-partition per orbit of the lattice's
    automorphisms G (ham.lattice.automorphisms()), the least
    restricted-growth row of each orbit (orbit_representatives over the
    chunks of k_partition_rows): H commutes with those site
    permutations, so every partition of an orbit has the same minimum.
    The orbits searched are capped at DEFAULT_ENUMERATION_CAP, counted
    as they are kept, and the rows walked at that cap times |G|, checked
    on S(n,k) before any sweep; either raises ResourceError.  `restarts`
    counts the random starts per orbit, where searching every partition
    gave an orbit |orbit| * restarts starts.  The search runs by sweeps
    of exact block ground-state updates, each block in the mean field of
    its neighbours' Bloch vectors, accelerated by Anderson mixing on
    those Bloch vectors (see _sweep_batch).  A single site is updated in
    closed form, the spin anti-aligned with its field, and a larger block
    by a batched eigensolve; each sweep's energy is read in one pass from
    the block ground energies and the fields of later blocks.  An
    accelerated sweep that would raise a restart's energy is rejected and
    replaced by a plain sweep, which cannot, and the energy kept is the
    best accepted one, always that of an actual product state.  Only
    block Hamiltonians are built, never the 2^n x 2^n matrix, except for
    k = 1, the unconstrained ground energy, read from ham.spectrum().

    Partitions with the same ordered block sizes (every (4, 2)
    bipartition, say) are swept as one batch, all restarts together,
    in chunks of at most _CHUNK_BYTES (see _chunk_len).
    Start states are drawn from the seeded generator per searched
    partition in enumeration order and per block, so each (partition,
    restart) starts exactly where a one-partition-at-a-time search over
    the same partitions would.  A batched block eigensolve that LAPACK
    fails on is redone matrix by matrix (see _ground_pairs).

    tol bounds the fixed-point residual: a restart stops once one sweep
    moves no Bloch vector component by more than tol, or, whatever tol
    is, once its best energy has not changed at all over the last
    _DEPTH sweeps (a block whose ground level is degenerate has Bloch
    vectors that never settle, and its energy goes flat instead).  A
    searched partition whose restarts have not all stopped after max_iter
    sweeps keeps its best value and is named in `nonconverged` as a
    Partition, so that names orbit representatives only.  A known lower
    bound (the exact ground energy) ends the search, checked after every
    batch, once the best energy over the searched partitions up to some
    point in enumeration order is within tol of it; the result then
    covers exactly those partitions, as a one-partition-at-a-time search
    would.
    """
    n = _spin_count(ham)
    if not 1 <= k <= n:
        raise DomainError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts}")
    if k == 1:
        return ProductMinimum(float(ham.spectrum()[0][0]))

    rng = np.random.default_rng(seed)
    floor = -np.inf if lower_bound is None else lower_bound + tol
    best = np.inf
    nonconverged = []
    settled = {}
    cursor = 0

    def run(batch):
        """Sweep one batch, then fold every result that is next in
        enumeration order into best; True once best reaches the floor."""
        nonlocal best, cursor
        rows = np.array([row for _, row, _ in batch])
        starts = [np.stack(block) for block in zip(*(s for _, _, s in batch))]
        energies, converged = _sweep_batch(ham, rows, starts, tol, max_iter)
        for (index, row, _), energy, ok in zip(batch, energies, converged):
            settled[index] = (row, float(energy), ok)
        while cursor in settled:
            row, energy, ok = settled.pop(cursor)
            cursor += 1
            best = min(best, energy)
            if not ok:
                nonconverged.append(Partition([np.flatnonzero(row == b) for b in range(k)]))
            if best <= floor:
                return True
        return False

    group = ham.lattice.automorphisms()
    cap = DEFAULT_ENUMERATION_CAP
    representatives = (row for chunk in k_partition_rows(n, k, cap * len(group))
                       for row in orbit_representatives(chunk, group))
    pending = {}  # block sizes -> [(index, row, start states)]
    for index, row in enumerate(representatives):
        if index == cap:
            raise ResourceError(f"the {k}-partitions of {n} sites fall into more than "
                                f"{cap} lattice-automorphism orbits, over the cap {cap}")
        sizes = tuple(np.bincount(row).tolist())
        starts = []
        for size in sizes:
            dim = 2 ** size
            v = rng.standard_normal((restarts, dim)) + 1j * rng.standard_normal(
                (restarts, dim)
            )
            starts.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        batch = pending.setdefault(sizes, [])
        batch.append((index, row, starts))
        if len(batch) >= _chunk_len(sizes, restarts):
            del pending[sizes]
            if run(batch):
                return ProductMinimum(best, tuple(nonconverged))
    # dict order is the order of each batch's first partition
    for batch in pending.values():
        if run(batch):
            break
    return ProductMinimum(best, tuple(nonconverged))


@dataclass
class GapReport:
    """Ground energy, per-k product-state minima and the implied gaps;
    nonconverged[k] names the searched partitions (orbit representatives)
    whose search hit max_iter."""

    hamiltonian: SpinHamiltonian
    e0: float
    energies: dict = field(default_factory=dict)
    nonconverged: dict = field(default_factory=dict)
    slack: float = DEFAULT_OPT_SLACK

    @property
    def converged(self):
        return {k: not parts for k, parts in self.nonconverged.items()}

    def gap(self, k):
        return self.energies[k] - self.e0

    def detects(self, energy, k, slack=None):
        """True when a state of energy tr(rho H) = `energy` sits strictly
        below E_ksep minus the optimiser slack (self.slack unless given).
        That proves k-inseparability only if E_ksep, an upper bound from
        a local search, is the true k-separable minimum: the slack covers
        incomplete convergence, not a missed global minimum of an orbit."""
        if k not in self.energies:
            raise DomainError(f"report carries no E_ksep for k={k}")
        margin = self.slack if slack is None else slack
        return energy < self.energies[k] - margin


def entanglement_gaps(ham, ks=None, restarts=32, tol=1e-10, seed=0,
                      slack=DEFAULT_OPT_SLACK):
    """E_ksep of the SpinHamiltonian `ham` for every requested k (default
    2..n) plus the exact E_0 of ham.spectrum(), whose cached sector
    eigenvectors report.hamiltonian keeps alive."""
    n = _spin_count(ham)
    e0 = float(ham.spectrum()[0][0])
    report = GapReport(hamiltonian=ham, e0=e0, slack=slack)
    for k in ks if ks is not None else range(2, n + 1):
        res = min_ksep_energy(
            ham, k, restarts=restarts, tol=tol, seed=seed, lower_bound=e0
        )
        report.energies[int(k)] = res.energy
        report.nonconverged[int(k)] = res.nonconverged
    return report


def gap_witness_detects(rho, report, k, slack=None):
    """report.detects(tr(rho H), k, slack) for a density matrix rho.
    tr(rho H) is read off the sector eigenpairs of report.hamiltonian, as
    sum_i E_i <v_i|rho|v_i>, with no dense H."""
    if rho.mat.shape != report.hamiltonian.shape:
        raise DomainError("state and Hamiltonian dimensions do not match")
    energy = 0.0
    for indices, evals, evecs in report.hamiltonian.spectrum()[1]:
        block = rho.mat[np.ix_(indices, indices)]
        energy += float(np.sum(evecs * (block @ evecs), axis=0).real @ evals)
    return report.detects(energy, k, slack)
