"""The product-state optimiser and the bitwise Hamiltonian against the
code they replaced.

oracle_min_ksep_energy sweeps one partition at a time with plain
alternating block updates, an einsum over permuted copies of H built
basis state by basis state, and stops once the energy falls by less
than tol per sweep; oracle_hamiltonian sums kron products of Pauli
matrices.  Both are kept verbatim in logic.  The accelerated search
stops on a stricter test, so for identical seeds and restarts every
E_ksep must be no more than 1e-12 above the oracle's, and converged
wherever the oracle converged, also when max_iter cuts both searches
short, when a lower bound ends the search early and when a small byte
budget splits the batches.  Rows are swept independently, so a split
search must also equal the unsplit one to 1e-12, naming the same
nonconverged partitions.  The Hamiltonians must be equal entry for
entry, the oracle's imaginary part exactly zero.
"""

import numpy as np
import pytest

from multisep import (
    HeisenbergParams,
    Lattice,
    SpinHamiltonian,
    SystemShape,
    heisenberg_hamiltonian,
    hermitian_spectrum,
    iter_k_partitions,
    kron_all,
    min_ksep_energy,
)
from multisep import manybody

TOL = 1e-12
DEFAULT_CHUNK_BYTES = manybody._CHUNK_BYTES

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)


@pytest.fixture(autouse=True)
def full_partition_search(monkeypatch):
    """min_ksep_energy searches one partition per lattice-automorphism
    orbit.  The oracle below searches every partition from the same
    seeded start states, so here every lattice gets the trivial group,
    under which the search visits every partition too."""
    monkeypatch.setattr(Lattice, "automorphisms", lambda self: np.arange(self.n)[None])


# ---------------------------------------------------------------------------
# Oracles: the code the batched optimiser and the bitwise builder replaced
# ---------------------------------------------------------------------------


def _site_op(op, site, n):
    factors = [_ID] * n
    factors[site] = op
    return kron_all(factors)


def oracle_hamiltonian(lattice, params):
    n = lattice.n
    dim = 2 ** n
    h_mat = np.zeros((dim, dim), dtype=complex)
    for i, j in lattice.edges:
        for coupling, op in ((params.jx, _SX), (params.jy, _SY), (params.jz, _SZ)):
            if coupling != 0.0:
                h_mat += 0.5 * coupling * (_site_op(op, i, n) @ _site_op(op, j, n))
    if params.h != 0.0:
        for i in range(n):
            h_mat += params.h * _site_op(_SZ, i, n)
    return h_mat


def _oracle_layouts(h_mat, blocks, n):
    shape = SystemShape((2,) * n)
    layouts = []
    for j, block in enumerate(blocks):
        order = list(block)
        for i, other in enumerate(blocks):
            if i != j:
                order.extend(other)
        idx = np.empty(2 ** n, dtype=np.intp)
        for x in range(2 ** n):
            bits = shape.decode(x)
            old = [0] * n
            for pos, q in enumerate(order):
                old[q] = bits[pos]
            idx[x] = shape.encode(old)
        da = 2 ** len(block)
        dr = 2 ** (n - len(block))
        layouts.append(h_mat[np.ix_(idx, idx)].reshape(da, dr, da, dr))
    return layouts


def oracle_min_ksep_energy(h_mat, k, restarts=32, tol=1e-10, seed=0, max_iter=5000,
                           lower_bound=None):
    """(energy, converged) from the one-partition-at-a-time search."""
    n = h_mat.shape[0].bit_length() - 1
    if k == 1:
        return float(hermitian_spectrum(h_mat)[0]), True
    rng = np.random.default_rng(seed)
    best = np.inf
    all_converged = True
    floor = -np.inf if lower_bound is None else lower_bound + tol
    for part in iter_k_partitions(n, k):
        blocks = part.blocks
        layouts = _oracle_layouts(h_mat, blocks, n)
        states = []
        for block in blocks:
            dim = 2 ** len(block)
            v = rng.standard_normal((restarts, dim)) + 1j * rng.standard_normal(
                (restarts, dim)
            )
            states.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        energies = np.full(restarts, np.inf)
        converged = False
        for _ in range(max_iter):
            prev = energies
            for j in range(len(blocks)):
                rest = np.ones((restarts, 1), dtype=complex)
                for i in range(len(blocks)):
                    if i != j:
                        rest = np.einsum("na,nb->nab", rest, states[i]).reshape(
                            restarts, -1
                        )
                heff = np.einsum(
                    "arbs,nr,ns->nab", layouts[j], rest.conj(), rest, optimize=True
                )
                evals, evecs = np.linalg.eigh(heff)
                states[j] = evecs[..., 0]
                energies = evals[..., 0]
            if np.max(prev - energies) < tol:
                converged = True
                break
        best = min(best, float(energies.min()))
        all_converged = all_converged and converged
        if best <= floor:
            return best, all_converged
    return best, all_converged


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

LATTICES = {"ring": Lattice.ring, "chain": Lattice.chain}
FIELDS = {
    "isotropic": HeisenbergParams.from_gamma(0.0),
    "anisotropic-field": HeisenbergParams.from_gamma(0.3, h=0.7),
}


def _hamiltonian(lattice, n, field):
    return SpinHamiltonian(LATTICES[lattice](n), FIELDS[field])


def _no_worse(ham, k, **kwargs):
    ours = min_ksep_energy(ham, k, **kwargs)
    energy, converged = oracle_min_ksep_energy(ham.dense(), k, **kwargs)
    assert ours.energy <= energy + TOL, (k, kwargs, ours.energy, energy)
    assert ours.converged or not converged, (k, kwargs)
    return ours


def _split_no_worse(ham, k, **kwargs):
    """_no_worse under the patched byte budget, and the same result as
    at the default budget."""
    ours = _no_worse(ham, k, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manybody, "_CHUNK_BYTES", DEFAULT_CHUNK_BYTES)
        whole = min_ksep_energy(ham, k, **kwargs)
    assert abs(ours.energy - whole.energy) <= TOL, (k, kwargs, ours.energy, whole.energy)
    assert ours.nonconverged == whole.nonconverged, (k, kwargs)
    return ours


# For every k and both restart counts the oracle needs up to 8 s per seed
# at n = 5 and up to 18 s at n = 6, so the seeds vary at n <= 4 and the
# larger lattices run on seed 0.
GRID = [(lattice, n, field, seeds)
        for lattice in LATTICES for field in FIELDS
        for n, seeds in ((3, (0, 1, 2)), (4, (0, 1, 2)), (5, (0,)))]
GRID += [("ring", 6, "isotropic", (0,)), ("chain", 6, "anisotropic-field", (0,))]


@pytest.mark.parametrize("lattice,n,field,seeds", GRID,
                         ids=["-".join(map(str, case[:3])) for case in GRID])
def test_every_k_seed_and_restart_count(lattice, n, field, seeds):
    ham = _hamiltonian(lattice, n, field)
    for k in range(1 if n < 6 else 2, n + 1):
        for seed in seeds:
            for restarts in (1, 3):
                _no_worse(ham, k, restarts=restarts, seed=seed)


def _budget(n, sizes, restarts, partitions):
    """A byte budget that holds this many partitions of the given sizes:
    block Hamiltonians, and per restart effective Hamiltonians, adjacency
    and Bloch vectors with a 6-deep Anderson history."""
    hams = 16 * sum(4 ** s for s in sizes)
    per_row = hams + 8 * (n * n + 3 * n * (2 * 6 + 6))
    return partitions * (hams + restarts * per_row)


@pytest.mark.parametrize("budget", ["one", "few"])
def test_lower_bound_exit(budget, monkeypatch):
    """A strong field makes the ground state a product state, so the
    first batch reaches the bound; a bound at the unconstrained E_ksep is
    reached part-way through the enumeration, which the tiny budgets cut
    into many batches."""
    n = 5
    if budget == "one":
        monkeypatch.setattr(manybody, "_CHUNK_BYTES", 1)
    else:
        monkeypatch.setattr(manybody, "_CHUNK_BYTES", _budget(n, (3, 2), 3, 3))
    h_field = SpinHamiltonian(Lattice.ring(n), HeisenbergParams.from_gamma(0.0, h=3.0))
    e0 = float(hermitian_spectrum(h_field.dense())[0])
    for k in (2, 3):
        ours = _split_no_worse(h_field, k, restarts=3, seed=1, lower_bound=e0)
        assert ours.energy - e0 < 1e-6
    h_mat = SpinHamiltonian(Lattice.chain(n), HeisenbergParams.from_gamma(0.3, h=0.2))
    for k in (2, 3):
        unbounded = min_ksep_energy(h_mat, k, restarts=3, seed=2).energy
        _split_no_worse(h_mat, k, restarts=3, seed=2, lower_bound=unbounded)
        _split_no_worse(h_mat, k, restarts=3, seed=2, lower_bound=unbounded - 1e-3)


def test_max_iter_cut_names_every_partition():
    h_mat = SpinHamiltonian(Lattice.ring(5), HeisenbergParams.from_gamma(0.0))
    for k in (2, 3, 4):
        ours = _no_worse(h_mat, k, restarts=3, seed=0, max_iter=1)
        assert ours.nonconverged == tuple(iter_k_partitions(5, k))
        for cut in (4, 10):
            _no_worse(h_mat, k, restarts=3, seed=0, max_iter=cut)


@pytest.mark.parametrize("budget", ["one", "few"])
def test_small_budget_splits_batches(budget, monkeypatch):
    n = 5
    if budget == "one":
        monkeypatch.setattr(manybody, "_CHUNK_BYTES", 1)
    else:
        monkeypatch.setattr(manybody, "_CHUNK_BYTES", _budget(n, (3, 2), 3, 3))
    assert manybody._chunk_len((3, 2), 3) == (1 if budget == "one" else 3)
    h_mat = _hamiltonian("chain" if budget == "one" else "ring", n, "anisotropic-field")
    for k in (2, 3, 4):
        _split_no_worse(h_mat, k, restarts=3, seed=1)
    _split_no_worse(h_mat, 3, restarts=3, seed=1, max_iter=3)


HAMILTONIAN_PARAMS = [
    HeisenbergParams(),
    HeisenbergParams.from_gamma(0.3, h=0.7),
    HeisenbergParams.from_gamma(1.0, h=-0.25),
    HeisenbergParams(0.3, -1.1, 0.25, -2.0),
    HeisenbergParams(0.0, 0.0, 0.0, 0.7),
    HeisenbergParams(0.0, 1.0, 0.0, 0.0),
]


@pytest.mark.parametrize("n", range(2, 9))
def test_hamiltonian_identical(n):
    lattices = [Lattice.chain(n)] + ([Lattice.ring(n)] if n >= 3 else [])
    lattices.append(Lattice(n, [(0, n - 1)] + [(i, i + 1) for i in range(0, n - 2, 2)]))
    for lattice in lattices:
        for params in HAMILTONIAN_PARAMS:
            ours = heisenberg_hamiltonian(lattice, params)
            oracle = oracle_hamiltonian(lattice, params)
            assert ours.dtype == np.float64
            assert np.all(oracle.imag == 0.0), (lattice, params)
            assert np.array_equal(ours, oracle.real), (lattice, params)
