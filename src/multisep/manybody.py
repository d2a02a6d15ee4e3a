"""Heisenberg lattices, thermal states, and entanglement-gap witnesses.

The Hamiltonian of a set of spin-1/2 sites with nearest-neighbour
couplings is used as its own entanglement witness: every k-separable
state has energy at least E_ksep, so any state with energy below that
bound is certified k-inseparable (the k = 2 interval is the GME gap).
E_ksep is computed by constrained minimisation over product states of
each canonical k-partition: alternating exact block ground-state
updates, which decrease the energy monotonically, restarted from seeded
random product states.  Partitions with the same ordered block sizes
are swept together as one batch.  The result is therefore an upper
bound on the true constrained minimum; detection keeps a slack margin
in the conservative direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .partitions import iter_k_partitions
from .tensor import DensityMatrix, StateVector, hermitian_spectrum, qubits

DEFAULT_OPT_SLACK = 1e-6

# Bytes of permuted Hamiltonian layouts and matmul products one batch of
# partitions may hold; a partition that alone needs more runs by itself.
_CHUNK_BYTES = 1 << 26


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


def _site_bits(n):
    """bits[x, i]: the bit of site i in basis state x, site 0 the most
    significant as in kron order."""
    x = np.arange(2 ** n)
    return (x[:, None] >> (n - 1 - np.arange(n))) & 1


def heisenberg_hamiltonian(lattice, params, max_n=14):
    """Dense spin-1/2 Hamiltonian
    H = 1/2 sum_<ij> (Jx XX + Jy YY + Jz ZZ) + h sum_i Z_i.

    Built bitwise in the computational basis: ZZ and the field sit on
    the diagonal, and XX + YY flips bits i and j of |x> with amplitude
    (Jx - Jy z_i z_j)/2, where z = +1 for bit 0 and -1 for bit 1.
    """
    n = lattice.n
    if n > max_n:
        raise DomainError(f"dense Hamiltonian for n={n} sites exceeds the cap n={max_n}")
    dim = 2 ** n
    x = np.arange(dim)
    z = 1.0 - 2.0 * _site_bits(n)
    h_mat = np.zeros((dim, dim), dtype=complex)
    diag = np.zeros(dim)
    for i, j in lattice.edges:
        zz = z[:, i] * z[:, j]
        diag += 0.5 * params.jz * zz
        flip = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
        h_mat[x ^ flip, x] = 0.5 * (params.jx - params.jy * zz)
    for i in range(n):
        diag += params.h * z[:, i]
    h_mat[x, x] = diag
    return h_mat


def _qubit_count(h_mat):
    dim = h_mat.shape[0]
    n = dim.bit_length() - 1
    if h_mat.ndim != 2 or h_mat.shape[0] != h_mat.shape[1] or 2 ** n != dim:
        raise DomainError("expected a square matrix on a qubit register")
    return n


def partition_function(h_mat, kT):
    """Z = sum_i exp(-E_i / kT)."""
    if kT <= 0:
        raise DomainError(f"temperature kT={kT} must be positive")
    energies = hermitian_spectrum(h_mat)
    return float(np.sum(np.exp(-(energies - energies[0]) / kT)) * np.exp(-energies[0] / kT))


def _state_and_ground(h_mat, kT=None, degeneracy_tol=1e-9):
    """The Gibbs state exp(-H/kT)/Z and a ground-state vector, from one
    eigendecomposition of H.  kT None gives the equal mixture over the
    (possibly degenerate) ground manifold, the kT -> 0+ limit."""
    if kT is not None and kT <= 0:
        raise DomainError(f"temperature kT={kT} must be positive")
    n = _qubit_count(h_mat)
    evals, evecs = np.linalg.eigh(h_mat)
    if kT is None:
        vecs = evecs[:, evals <= evals[0] + degeneracy_tol]
        mat = vecs @ vecs.conj().T / vecs.shape[1]
    else:
        weights = np.exp(-(evals - evals[0]) / kT)
        weights /= weights.sum()
        mat = (evecs * weights) @ evecs.conj().T
    return (DensityMatrix(qubits(n), mat, validate=False),
            StateVector(qubits(n), evecs[:, 0]))


def thermal_state(h_mat, kT):
    """Gibbs state exp(-H/kT)/Z via eigendecomposition."""
    return _state_and_ground(h_mat, kT)[0]


def ground_state_dm(h_mat, degeneracy_tol=1e-9):
    """Equal mixture over the (possibly degenerate) ground manifold,
    i.e. the kT -> 0+ limit of the thermal state."""
    return _state_and_ground(h_mat, None, degeneracy_tol)[0]


@dataclass(frozen=True)
class ProductMinimum:
    """Least product-state energy found, and the partitions whose sweeps
    were still lowering the energy when they hit max_iter."""

    energy: float
    nonconverged: tuple = ()

    @property
    def converged(self):
        return not self.nonconverged


def _permuted_layouts(h_mat, orders):
    """H in the site order orders[p] for each row p, shape (P, dim, dim).

    New basis state x holds site orders[p, pos] in bit pos, so its old
    index sums 2^(n-1-orders[p, pos]) over the bits set in x.
    """
    n = orders.shape[1]
    idx = (_site_bits(n) @ (1 << (n - 1 - orders)).T).T
    return h_mat[idx[:, :, None], idx[:, None, :]]


def _chunk_len(n, sizes, restarts):
    """Partitions with these block sizes that fit one batch in _CHUNK_BYTES:
    k layouts of dim^2 plus the largest (dA*dim, restarts) matmul product."""
    dim = 2 ** n
    per_partition = 16 * dim * (len(sizes) * dim + restarts * 2 ** max(sizes))
    return max(1, _CHUNK_BYTES // per_partition)


def _sweep_batch(h_mat, parts, starts, tol, max_iter):
    """Alternating block ground-state updates for partitions that share
    their ordered block sizes, all restarts at once.

    starts[j] holds block j's start states, shape (P, restarts, dA_j).
    Returns each partition's least final energy over its restarts and
    whether its largest per-sweep decrement fell below tol.  Converged
    partitions leave the batch, which is compacted.
    """
    n = parts[0].n
    dim = 2 ** n
    layouts = []
    for j, block in enumerate(parts[0].blocks):
        orders = np.array([
            part.blocks[j] + tuple(q for i, other in enumerate(part.blocks) if i != j
                                   for q in other)
            for part in parts
        ])
        da = 2 ** len(block)
        layouts.append(_permuted_layouts(h_mat, orders).reshape(len(parts), da * dim, dim // da))
    states = list(starts)
    restarts = states[0].shape[1]
    live = np.arange(len(parts))
    energies = np.full((len(parts), restarts), np.inf)
    final = np.empty_like(energies)
    converged = np.zeros(len(parts), dtype=bool)
    for _ in range(max_iter):
        prev = energies
        for j, layout in enumerate(layouts):
            rest = np.ones((live.size, restarts, 1), dtype=complex)
            for i, state in enumerate(states):
                if i != j:
                    rest = (rest[..., :, None] * state[..., None, :]).reshape(
                        live.size, restarts, -1)
            da = states[j].shape[2]
            # heff[p, n, a, b] = sum_rs H[a, r, b, s] conj(rest[p, n, r]) rest[p, n, s]
            half = (layout @ rest.transpose(0, 2, 1)).reshape(
                live.size, da, -1, da, restarts)
            heff = np.einsum("pnr,parbn->pnab", rest.conj(), half)
            evals, evecs = np.linalg.eigh(heff)
            states[j] = evecs[..., 0]
            energies = evals[..., 0]
        done = np.max(prev - energies, axis=1) < tol
        if done.any():
            final[live[done]] = energies[done]
            converged[live[done]] = True
            keep = ~done
            live, energies = live[keep], energies[keep]
            states = [s[keep] for s in states]
            layouts = [lay[keep] for lay in layouts]
            if not live.size:
                break
    final[live] = energies
    return final.min(axis=1), converged


def min_ksep_energy(h_mat, k, restarts=32, tol=1e-10, seed=0, max_iter=5000,
                    lower_bound=None):
    """Minimal energy over k-separable states (upper bound by local search).

    Minimises <psi|H|psi> over product states of every canonical
    k-partition by alternating exact block ground-state updates; each
    update can only lower the energy, so every restart converges in
    energy.  k = 1 is the unconstrained ground energy.

    Partitions with the same ordered block sizes (every (4, 2)
    bipartition, say) are swept as one batch, all restarts together,
    in chunks of at most _CHUNK_BYTES of permuted Hamiltonian layouts.
    Start states are drawn from the seeded generator per partition in
    enumeration order and per block, so each (partition, restart)
    starts exactly where a one-partition-at-a-time search would.  A
    partition leaves its batch once its largest per-sweep decrement over
    restarts falls below tol; one still above it after max_iter sweeps
    keeps its best value and is named in `nonconverged`.  A known lower
    bound (the exact ground energy) ends the search, checked after every
    batch, once the best energy over the partitions up to some point in
    enumeration order reaches it; the result then covers exactly those
    partitions, as a one-partition-at-a-time search would.
    """
    n = _qubit_count(h_mat)
    if not 1 <= k <= n:
        raise DomainError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts}")
    if k == 1:
        return ProductMinimum(float(hermitian_spectrum(h_mat)[0]))

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
        parts = [part for _, part, _ in batch]
        starts = [np.stack(block) for block in zip(*(s for _, _, s in batch))]
        energies, converged = _sweep_batch(h_mat, parts, starts, tol, max_iter)
        for (index, part, _), energy, ok in zip(batch, energies, converged):
            settled[index] = (part, float(energy), ok)
        while cursor in settled:
            part, energy, ok = settled.pop(cursor)
            cursor += 1
            best = min(best, energy)
            if not ok:
                nonconverged.append(part)
            if best <= floor:
                return True
        return False

    pending = {}  # block sizes -> [(index, partition, start states)]
    for index, part in enumerate(iter_k_partitions(n, k)):
        starts = []
        for block in part.blocks:
            dim = 2 ** len(block)
            v = rng.standard_normal((restarts, dim)) + 1j * rng.standard_normal(
                (restarts, dim)
            )
            starts.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        sizes = tuple(len(b) for b in part.blocks)
        batch = pending.setdefault(sizes, [])
        batch.append((index, part, starts))
        if len(batch) >= _chunk_len(n, sizes, restarts):
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
    nonconverged[k] names the partitions whose search hit max_iter."""

    hamiltonian: np.ndarray
    e0: float
    energies: dict = field(default_factory=dict)
    nonconverged: dict = field(default_factory=dict)
    slack: float = DEFAULT_OPT_SLACK

    @property
    def converged(self):
        return {k: not parts for k, parts in self.nonconverged.items()}

    def gap(self, k):
        return self.energies[k] - self.e0


def entanglement_gaps(h_mat, ks=None, restarts=32, tol=1e-10, seed=0,
                      slack=DEFAULT_OPT_SLACK):
    """E_ksep for every requested k (default 2..n) plus the exact E_0."""
    n = _qubit_count(h_mat)
    e0 = float(hermitian_spectrum(h_mat)[0])
    report = GapReport(hamiltonian=h_mat, e0=e0, slack=slack)
    for k in ks if ks is not None else range(2, n + 1):
        res = min_ksep_energy(
            h_mat, k, restarts=restarts, tol=tol, seed=seed, lower_bound=e0
        )
        report.energies[int(k)] = res.energy
        report.nonconverged[int(k)] = res.nonconverged
    return report


def gap_witness_detects(rho, report, k, slack=None):
    """True when tr(rho H) sits strictly below E_ksep minus the optimiser
    slack, certifying k-inseparability."""
    if k not in report.energies:
        raise DomainError(f"report carries no E_ksep for k={k}")
    if rho.mat.shape != report.hamiltonian.shape:
        raise DomainError("state and Hamiltonian dimensions do not match")
    energy = float(np.einsum("ij,ji->", rho.mat, report.hamiltonian).real)
    margin = report.slack if slack is None else slack
    return energy < report.energies[k] - margin
