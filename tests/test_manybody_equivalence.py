"""The product-state optimiser against the recorded outputs of the search
it replaced, and the bitwise Hamiltonian against its kron-sum definition.

The replaced search swept one partition at a time with plain alternating
block updates, an einsum over permuted copies of H built basis state by
basis state, and stopped once the energy fell by less than tol per
sweep.  Its (E_ksep, converged) on the fixed lattices, seeds and restart
counts below are pinned in pins/manybody.json.  It searched every
partition, so here every lattice gets the trivial automorphism group,
under which min_ksep_energy searches every partition too.  The
accelerated search stops on a stricter test, so every E_ksep must be no
more than 1e-12 above its pin, and converged wherever the pin is, also
when max_iter cuts the search short, when a lower bound ends it early
and when a small byte budget splits the batches.  Rows are swept
independently, so a split search must also equal the unsplit one to
1e-12, naming the same nonconverged partitions.  The Hamiltonians must
equal the kron sum entry for entry, its imaginary part exactly zero.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from multisep import (
    HeisenbergParams,
    Lattice,
    SpinHamiltonian,
    heisenberg_hamiltonian,
    hermitian_spectrum,
    iter_k_partitions,
    kron_all,
    min_ksep_energy,
)
from multisep import manybody

TOL = 1e-12
DEFAULT_CHUNK_BYTES = manybody._CHUNK_BYTES
PINS = json.loads((Path(__file__).parent / "pins" / "manybody.json").read_text())


def _every_partition(monkeypatch):
    """The trivial automorphism group for every lattice: min_ksep_energy
    then searches every partition, from the same seeded start states."""
    monkeypatch.setattr(Lattice, "automorphisms", lambda self: np.arange(self.n)[None])


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


def _no_worse(ham, k, pinned, **kwargs):
    ours = min_ksep_energy(ham, k, **kwargs)
    energy, converged = pinned
    assert ours.energy <= energy + TOL, (k, kwargs, ours.energy, energy)
    assert ours.converged or not converged, (k, kwargs)
    return ours


def _split_no_worse(ham, k, pinned, **kwargs):
    """_no_worse under the patched byte budget, and the same result as
    at the default budget."""
    ours = _no_worse(ham, k, pinned, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manybody, "_CHUNK_BYTES", DEFAULT_CHUNK_BYTES)
        whole = min_ksep_energy(ham, k, **kwargs)
    assert abs(ours.energy - whole.energy) <= TOL, (k, kwargs, ours.energy, whole.energy)
    assert ours.nonconverged == whole.nonconverged, (k, kwargs)
    return ours


# The replaced search needed up to 8 s per seed at n = 5 and up to 18 s
# at n = 6 for every k and both restart counts, so the seeds vary at
# n <= 4 and the larger lattices run on seed 0.
GRID = [(lattice, n, field, seeds)
        for lattice in LATTICES for field in FIELDS
        for n, seeds in ((3, (0, 1, 2)), (4, (0, 1, 2)), (5, (0,)))]
GRID += [("ring", 6, "isotropic", (0,)), ("chain", 6, "anisotropic-field", (0,))]


@pytest.mark.parametrize("lattice,n,field,seeds", GRID,
                         ids=["-".join(map(str, case[:3])) for case in GRID])
def test_every_k_seed_and_restart_count(lattice, n, field, seeds, monkeypatch):
    _every_partition(monkeypatch)
    ham = _hamiltonian(lattice, n, field)
    pins = PINS["every_k_seed_and_restart_count"][f"{lattice}-{n}-{field}"]
    cases = [(k, seed, restarts) for k in range(1 if n < 6 else 2, n + 1)
             for seed in seeds for restarts in (1, 3)]
    assert len(cases) == len(pins)
    for k, seed, restarts in cases:
        _no_worse(ham, k, pins[f"{k}-{seed}-{restarts}"], restarts=restarts, seed=seed)


def _set_chunk_bytes(monkeypatch, budget):
    """A byte budget that holds one partition a batch, or three of the
    3 + 2 shape; one partition's bytes are read back from _chunk_len at a
    budget far above them."""
    large = 1 << 50
    monkeypatch.setattr(manybody, "_CHUNK_BYTES", large)
    per_partition = large // manybody._chunk_len((3, 2), 3)
    monkeypatch.setattr(manybody, "_CHUNK_BYTES", 1 if budget == "one" else 3 * per_partition)
    assert manybody._chunk_len((3, 2), 3) == (1 if budget == "one" else 3)


@pytest.mark.parametrize("budget", ["one", "few"])
def test_lower_bound_exit(budget, monkeypatch):
    """A strong field makes the ground state a product state, so the
    first batch reaches the bound; a bound at the unconstrained E_ksep is
    reached part-way through the enumeration, which the tiny budgets cut
    into many batches."""
    _every_partition(monkeypatch)
    n = 5
    _set_chunk_bytes(monkeypatch, budget)
    pins = PINS["lower_bound_exit"]
    h_field = SpinHamiltonian(Lattice.ring(n), HeisenbergParams.from_gamma(0.0, h=3.0))
    e0 = float(hermitian_spectrum(h_field.dense())[0])
    for k in (2, 3):
        ours = _split_no_worse(h_field, k, pins[f"field-{k}"], restarts=3, seed=1,
                               lower_bound=e0)
        assert ours.energy - e0 < 1e-6
    h_mat = SpinHamiltonian(Lattice.chain(n), HeisenbergParams.from_gamma(0.3, h=0.2))
    for k in (2, 3):
        unbounded = min_ksep_energy(h_mat, k, restarts=3, seed=2).energy
        _split_no_worse(h_mat, k, pins[f"chain-{k}-at"], restarts=3, seed=2,
                        lower_bound=unbounded)
        _split_no_worse(h_mat, k, pins[f"chain-{k}-below"], restarts=3, seed=2,
                        lower_bound=unbounded - 1e-3)


def test_max_iter_cut_names_every_partition(monkeypatch):
    _every_partition(monkeypatch)
    h_mat = SpinHamiltonian(Lattice.ring(5), HeisenbergParams.from_gamma(0.0))
    pins = PINS["max_iter_cut"]
    for k in (2, 3, 4):
        ours = _no_worse(h_mat, k, pins[f"{k}-1"], restarts=3, seed=0, max_iter=1)
        assert ours.nonconverged == tuple(iter_k_partitions(5, k))
        for cut in (4, 10):
            _no_worse(h_mat, k, pins[f"{k}-{cut}"], restarts=3, seed=0, max_iter=cut)


@pytest.mark.parametrize("budget", ["one", "few"])
def test_small_budget_splits_batches(budget, monkeypatch):
    _every_partition(monkeypatch)
    n = 5
    _set_chunk_bytes(monkeypatch, budget)
    lattice = "chain" if budget == "one" else "ring"
    h_mat = _hamiltonian(lattice, n, "anisotropic-field")
    pins = PINS["split_batches"]
    for k in (2, 3, 4):
        _split_no_worse(h_mat, k, pins[f"{lattice}-{k}"], restarts=3, seed=1)
    _split_no_worse(h_mat, 3, pins[f"{lattice}-3-cut"], restarts=3, seed=1, max_iter=3)


# ---------------------------------------------------------------------------
# The Hamiltonian's definition: a sum of kron products of Pauli matrices
# ---------------------------------------------------------------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)


def _site_op(op, site, n):
    factors = [_ID] * n
    factors[site] = op
    return kron_all(factors)


def kron_sum_hamiltonian(lattice, params):
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
            want = kron_sum_hamiltonian(lattice, params)
            assert ours.dtype == np.float64
            assert np.all(want.imag == 0.0), (lattice, params)
            assert np.array_equal(ours, want.real), (lattice, params)
