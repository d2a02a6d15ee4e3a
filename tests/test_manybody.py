import numpy as np
import pytest
from scipy.optimize import minimize

from multisep import (
    DomainError,
    HeisenbergParams,
    Lattice,
    Partition,
    ResourceError,
    SpinHamiltonian,
    StateVector,
    cgme_pure,
    entanglement_gaps,
    gap_witness_detects,
    ground_state_dm,
    ground_vector,
    heisenberg_hamiltonian,
    hermitian_spectrum,
    iter_k_partitions,
    kron_all,
    maximally_mixed,
    min_ksep_energy,
    partition_function,
    qubits,
    thermal_energy,
    thermal_state,
)
from multisep import cli, manybody
from multisep.partitions import k_partition_rows, orbit_representatives

SZ = np.diag([1.0, -1.0]).astype(complex)


def total_sz(n):
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        out += np.kron(np.kron(np.eye(2 ** i), SZ), np.eye(2 ** (n - i - 1)))
    return out


class TestLattice:
    def test_chain_and_ring(self):
        assert Lattice.chain(4).edges == ((0, 1), (1, 2), (2, 3))
        assert Lattice.ring(4).edges == ((0, 1), (1, 2), (2, 3), (0, 3))

    def test_validation(self):
        with pytest.raises(DomainError):
            Lattice(3, [(0, 0)])
        with pytest.raises(DomainError):
            Lattice(3, [(0, 1), (1, 0)])
        with pytest.raises(DomainError):
            Lattice(3, [(0, 3)])

    def test_needs_a_site(self):
        for n in (0, -1):
            with pytest.raises(DomainError, match="at least one site"):
                Lattice.chain(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_automorphisms(self, n):
        """A ring keeps its dihedral group, a chain its reflection, and any
        lattice a group of edge maps that starts with the identity."""
        lattices = [(Lattice.chain(n), 2 if n > 1 else 1)]
        if n >= 3:
            lattices.append((Lattice.ring(n), 2 * n))
        lattices.append((Lattice(n, [(i, i + 1) for i in range(0, n - 1, 2)]), None))
        for lattice, order in lattices:
            group = lattice.automorphisms()
            assert group[0].tolist() == list(range(n))
            if order is not None:
                assert len(group) == order, lattice
            perms = {tuple(p) for p in group.tolist()}
            assert len(perms) == len(group)
            assert all(tuple(a[b]) in perms for a in group for b in group)
            for perm in group:
                assert {tuple(sorted((perm[i], perm[j]))) for i, j in lattice.edges} == set(
                    lattice.edges)

    def test_automorphisms_commute_with_h(self):
        for lattice in (Lattice.ring(5), Lattice.chain(4),
                        Lattice(4, [(0, 1), (0, 2), (2, 3)])):
            ham = SpinHamiltonian(lattice, HeisenbergParams.from_gamma(0.3, h=0.7))
            n = lattice.n
            h_t = ham.dense().reshape((2,) * 2 * n)
            group = lattice.automorphisms()
            assert len(group) > 1
            for perm in group:
                axes = list(perm) + [n + q for q in perm]
                assert np.max(np.abs(h_t.transpose(axes) - h_t)) < 1e-12, (lattice, perm)

    def test_gamma_preset(self):
        p = HeisenbergParams.from_gamma(0.5, h=1.0)
        assert (p.jx, p.jy, p.jz, p.h) == (1.0, 0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            HeisenbergParams.from_gamma(1.5)


class TestHamiltonian:
    def test_two_site_spectrum(self):
        # 1/2 (XX + YY + ZZ): triplet at +1/2, singlet at -3/2
        h = heisenberg_hamiltonian(Lattice.chain(2), HeisenbergParams.from_gamma(0.0))
        assert np.allclose(hermitian_spectrum(h), [-1.5, 0.5, 0.5, 0.5])

    def test_field_only_spectrum(self):
        h = heisenberg_hamiltonian(Lattice.chain(3), HeisenbergParams(0, 0, 0, h=0.7))
        expected = sorted(0.7 * (3 - 2 * bin(x).count("1")) for x in range(8))
        assert np.allclose(hermitian_spectrum(h), expected)
        assert np.allclose(h, np.diag(np.diag(h)))

    def test_u1_symmetry(self):
        h = heisenberg_hamiltonian(Lattice.ring(4),
                                   HeisenbergParams.from_gamma(0.0, h=0.3))
        sz = total_sz(4)
        assert np.max(np.abs(h @ sz - sz @ h)) < 1e-12

    def test_hermitian(self):
        h = heisenberg_hamiltonian(Lattice.ring(5),
                                   HeisenbergParams.from_gamma(0.7, h=-0.4))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_ring3_isotropic_ground_degeneracy(self):
        h = heisenberg_hamiltonian(Lattice.ring(3), HeisenbergParams.from_gamma(0.0))
        evals = hermitian_spectrum(h)
        assert np.sum(evals < evals[0] + 1e-9) >= 2

    def test_dimension_cap(self):
        with pytest.raises(ResourceError):
            heisenberg_hamiltonian(Lattice.chain(15), HeisenbergParams())


class TestThermal:
    def test_infinite_temperature_limit(self):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams.from_gamma(0.0))
        rho = thermal_state(h, 1e6)
        assert np.max(np.abs(rho.mat - np.eye(4) / 4)) < 1e-4

    def test_zero_temperature_limit(self):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams.from_gamma(0.0, h=0.1))
        rho = thermal_state(h, 1e-4)
        evals, evecs = np.linalg.eigh(h.dense())
        ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
        assert np.max(np.abs(rho.mat - ground)) < 1e-9

    def test_partition_function_definition(self):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams.from_gamma(0.3))
        kT = 0.8
        direct = sum(np.exp(-e / kT) for e in hermitian_spectrum(h.dense()))
        assert partition_function(h, kT) == pytest.approx(direct)

    def test_temperature_domain(self):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams())
        with pytest.raises(DomainError):
            thermal_state(h, 0.0)

    @pytest.mark.parametrize("kT, message", [
        (None, "needs a temperature kT > 0, got None"),
        (0.0, "kT=0.0 must be positive"),
        (float("nan"), "kT=nan must be positive"),
    ])
    def test_partition_function_needs_a_temperature(self, kT, message):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams())
        with pytest.raises(DomainError, match=message):
            partition_function(h, kT)

    def test_ground_manifold_mixture(self):
        h = SpinHamiltonian(Lattice.ring(3), HeisenbergParams.from_gamma(0.0))
        rho = ground_state_dm(h)
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        evals = hermitian_spectrum(h.dense())
        energy = np.trace(rho.mat @ h.dense()).real
        assert energy == pytest.approx(evals[0], abs=1e-9)


CUSTOM = Lattice(7, [(0, 3), (1, 2), (2, 6), (4, 5), (0, 6), (3, 5)])


class TestSectorSpectrum:
    """E_0, Z and the thermal energy from the sector blocks against one
    dense np.linalg.eigh."""

    @pytest.mark.parametrize("lattice", [Lattice.ring(10), Lattice.chain(9), CUSTOM,
                                         Lattice.chain(2), Lattice(1, [])],
                             ids=["ring10", "chain9", "custom7", "chain2", "site"])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("h", [0.0, 0.4])
    def test_against_the_dense_spectrum(self, lattice, gamma, h):
        ham = SpinHamiltonian(lattice, HeisenbergParams.from_gamma(gamma, h=h))
        evals, evecs = np.linalg.eigh(ham.dense())
        energies, sectors = ham.spectrum()
        assert np.array_equal(np.sort(np.concatenate([s[0] for s in sectors])),
                              np.arange(2 ** lattice.n))
        assert abs(energies[0] - evals[0]) < 1e-12
        assert np.max(np.abs(energies - evals)) < 1e-12
        for kT in (0.5, 2.0):
            weights = np.exp(-(evals - evals[0]) / kT)
            z = np.sum(np.exp(-evals / kT))
            assert abs(partition_function(ham, kT) - z) < 1e-12 * z
            assert abs(thermal_energy(ham, kT) - weights @ evals / weights.sum()) < 1e-12
        ground = evals <= evals[0] + 1e-9
        assert abs(thermal_energy(ham, None) - np.mean(evals[ground])) < 1e-12
        if lattice.n <= 7:
            weights = np.exp(-(evals - evals[0]) / 0.5)
            want = (evecs * (weights / weights.sum())) @ evecs.T
            assert np.max(np.abs(thermal_state(ham, 0.5).mat - want)) < 1e-12
            want = evecs[:, ground] @ evecs[:, ground].T / ground.sum()
            assert np.max(np.abs(ground_state_dm(ham).mat - want)) < 1e-12


class TestGroundVector:
    """ground_vector: P e_x / |P e_x| with P the ground-level projector and
    x the basis index of largest P_xx, the smallest x on ties."""

    RING9 = 0.6905934982293  # cgme of the isotropic ring(9) ground vector

    def _rotated(self, ham, rng):
        """ham with each sector's ground eigenvectors mixed by a random
        orthogonal matrix."""
        energies, sectors = ham.spectrum()
        out = SpinHamiltonian(ham.lattice, ham.params)
        rotated = []
        for indices, evals, evecs in sectors:
            evecs = evecs.copy()
            ground = evals <= energies[0] + 1e-9
            q, _ = np.linalg.qr(rng.standard_normal((ground.sum(), ground.sum())))
            evecs[:, ground] = evecs[:, ground] @ q
            rotated.append((indices, evals, evecs))
        out._built["spectrum"] = energies, tuple(rotated)
        return out

    def test_degenerate_ring9_is_basis_free(self, rng):
        ham = SpinHamiltonian(Lattice.ring(9), HeisenbergParams.from_gamma(0.0))
        energies = ham.spectrum()[0]
        assert np.sum(energies <= energies[0] + 1e-9) == 4
        value = cgme_pure(ground_vector(ham)).value
        assert abs(value - self.RING9) < 1e-12
        for _ in range(3):
            assert abs(cgme_pure(ground_vector(self._rotated(ham, rng))).value - value) < 1e-12
        # the same vector from the dense eigenvectors, another basis of the level
        evals, evecs = np.linalg.eigh(ham.dense())
        ground = evecs[:, evals <= evals[0] + 1e-9]
        diag = np.sum(ground ** 2, axis=1)
        x = np.flatnonzero(diag >= diag.max() - 1e-9)[0]
        want = ground @ ground[x] / np.sqrt(diag[x])
        assert np.max(np.abs(ground_vector(ham).amp - want)) < 1e-12

    def test_nondegenerate_ground_vector(self):
        ham = SpinHamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.3, h=0.2))
        evals, evecs = np.linalg.eigh(ham.dense())
        assert evals[1] - evals[0] > 1e-3
        assert abs(abs(np.vdot(evecs[:, 0], ground_vector(ham).amp)) - 1) < 1e-12


# the couplings test_manybody_equivalence.py builds Hamiltonians with
PARAMS = [
    HeisenbergParams(),
    HeisenbergParams.from_gamma(0.3, h=0.7),
    HeisenbergParams.from_gamma(1.0, h=-0.25),
    HeisenbergParams(0.3, -1.1, 0.25, -2.0),
    HeisenbergParams(0.0, 0.0, 0.0, 0.7),
    HeisenbergParams(0.0, 1.0, 0.0, 0.0),
]


def _from_sectors(sectors, dim):
    """The matrix sum over sectors of V diag(w) V^T, scattered into place."""
    out = np.zeros((dim, dim))
    for indices, evals, evecs in sectors:
        out[np.ix_(indices, indices)] = (evecs * evals) @ evecs.T
    return out


def _lattices(n):
    out = [Lattice.chain(n)] + ([Lattice.ring(n)] if n >= 3 else [])
    out.append(Lattice(n, [(0, n - 1)] + [(i, i + 1) for i in range(0, n - 2, 2)]))
    return out


class TestSpinHamiltonian:
    def test_shape_and_cached_dense(self):
        lattice, params = Lattice.ring(4), HeisenbergParams.from_gamma(0.3, h=0.2)
        ham = SpinHamiltonian(lattice, params)
        assert ham.n == 4 and ham.shape == (16, 16)
        assert ham.dense() is ham.dense()
        assert np.array_equal(ham.dense(), heisenberg_hamiltonian(lattice, params))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_block_is_the_reordered_sub_lattice(self, n):
        for lattice in _lattices(n):
            for params in PARAMS:
                ham = SpinHamiltonian(lattice, params)
                assert np.array_equal(ham.block(range(n)), ham.dense())
                # reversed order: site n-1 is the most significant bit
                flipped = ham.dense().reshape((2,) * 2 * n)
                axes = list(range(n))[::-1]
                flipped = flipped.transpose(axes + [n + a for a in axes]).reshape(ham.shape)
                assert np.max(np.abs(ham.block(range(n - 1, -1, -1)) - flipped)) < 1e-14
                assert ham.block([n - 1]).shape == (2, 2)

    def test_equal_sub_lattices_share_one_build(self, monkeypatch):
        built, build = [], manybody.heisenberg_hamiltonian

        def counting(lattice, params):
            built.append(lattice)
            return build(lattice, params)

        monkeypatch.setattr(manybody, "heisenberg_hamiltonian", counting)
        ham = SpinHamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.3, h=0.2))
        assert ham.block((0,)) is ham.block((3,))
        assert ham.block((0, 1, 2)) is ham.block((2, 3, 4))
        assert ham.block((0, 4, 5)) is not ham.block((0, 1, 2))
        assert built == [Lattice(1, []), Lattice.chain(3), Lattice(3, [(1, 2), (0, 2)])]

    def test_one_cached_spectrum(self):
        # popcount sectors 0..4 at Jx = Jy, else the two parities
        for gamma, count in ((0.0, 5), (0.3, 2)):
            ham = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(gamma, h=0.2))
            energies, sectors = ham.spectrum()
            assert ham.spectrum() is ham.spectrum()
            assert not any(a.flags.writeable for a in [energies, *sum(sectors, ())])
            assert len(sectors) == count
            assert np.max(np.abs(_from_sectors(sectors, 16) - ham.dense())) < 1e-12
            assert np.array_equal(energies, np.sort(np.concatenate([s[1] for s in sectors])))
            report = entanglement_gaps(ham, ks=[1])
            assert (report.e0 == report.energies[1] == min_ksep_energy(ham, 1).energy
                    == energies[0])

    def test_spectrum_survives_a_lapack_failure(self, monkeypatch):
        ham = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.3, h=0.2))
        want = np.linalg.eigvalsh(ham.dense())

        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        energies, sectors = ham.spectrum()
        assert np.max(np.abs(energies - want)) < 1e-12
        assert all(evecs.dtype == np.float64 for _, _, evecs in sectors)
        assert np.max(np.abs(_from_sectors(sectors, 16) - ham.dense())) < 1e-12

    def test_sector_blocks_need_a_closed_sorted_index_set(self):
        lattice = Lattice.chain(3)
        with pytest.raises(DomainError, match="outside themselves"):
            heisenberg_hamiltonian(lattice, HeisenbergParams.from_gamma(0.3), [0, 1, 2, 4])
        for bad in ([], [2, 1], [1, 1], [8], [-1]):
            with pytest.raises(DomainError, match="sorted distinct basis indices"):
                heisenberg_hamiltonian(lattice, HeisenbergParams(), bad)
        # at Jx = Jy the flips keep the popcount, whatever Jz and h are
        params = HeisenbergParams(0.5, 0.5, -1.2, h=0.3)
        indices = [3, 5, 6]
        want = heisenberg_hamiltonian(lattice, params)[np.ix_(indices, indices)]
        assert np.array_equal(heisenberg_hamiltonian(lattice, params, indices), want)

    def test_sector_budget_in_bytes(self, monkeypatch):
        # parity sectors of ring(15): 2 x 16384 states; 8 (2 m^2) bytes of
        # eigenvectors, 32 m^2 for the eigensolve of one sector and
        # 8 (n + 10 n) bytes a basis state
        need = 48 * 16384 ** 2 + 8 * 2 ** 15 * (15 + 150)
        with pytest.raises(ResourceError, match=f"16384 states.* {need} bytes"):
            SpinHamiltonian(Lattice.ring(15), HeisenbergParams.from_gamma(0.3)).spectrum()
        with pytest.raises(ResourceError, match="12870 states"):
            SpinHamiltonian(Lattice.ring(16), HeisenbergParams.from_gamma(0.0)).spectrum()

        class Built(Exception):
            pass

        def stop(*args):
            raise Built

        # popcount sectors of ring(14) (3432 states at most, 0.72 GB) and
        # parity sectors of ring(13) (4096 states, 0.81 GB) pass the check
        monkeypatch.setattr(manybody, "heisenberg_hamiltonian", stop)
        for n, gamma in ((14, 0.0), (13, 0.3)):
            with pytest.raises(Built):
                SpinHamiltonian(Lattice.ring(n), HeisenbergParams.from_gamma(gamma)).spectrum()

    @pytest.mark.parametrize("n, gamma, largest", [(14, 0.3, 8192), (15, 0.0, 6435)])
    def test_sector_budget_counts_the_eigensolve(self, monkeypatch, n, gamma, largest):
        # ring(14) at gamma != 0 keeps 1 GiB of eigenvectors, but its
        # eigensolve takes 2 GiB more; ring(15) at gamma = 0 keeps 1.24 GB
        # of eigenvectors and solves 6435 states in 1.33 GB.  Both are
        # refused before any sector is built.
        class Built(Exception):
            pass

        def stop(*args):
            raise Built

        monkeypatch.setattr(manybody, "heisenberg_hamiltonian", stop)
        with pytest.raises(ResourceError, match=f"\\({largest} states\\).*over the budget"):
            SpinHamiltonian(Lattice.ring(n), HeisenbergParams.from_gamma(gamma)).spectrum()

    def test_bad_block(self):
        ham = SpinHamiltonian(Lattice.chain(3), HeisenbergParams())
        for sites in ([0, 0], [3], [-1]):
            with pytest.raises(DomainError, match="not a set of sites"):
                ham.block(sites)


def _product_state(blocks, states, n):
    """The n-qubit vector of block states, in site order 0..n-1."""
    order = [q for block in blocks for q in block]
    vec = kron_all([s.reshape(-1, 1) for s in states]).reshape((2,) * n)
    return vec.transpose(np.argsort(order)).reshape(-1)


def _bloch(state):
    """<sigma_a> per site of a block state, with the optimiser's Paulis."""
    paulis = manybody._site_paulis(state.size.bit_length() - 1)
    d = state.size
    return np.array([np.vdot(state, p.reshape(d, d) @ state).real
                     for p in paulis]).reshape(-1, 3)


def _dense_contraction(h_mat, blocks, states, j, n):
    """<rest|H|rest> for block j: H in the order block j + the rest, then
    contracted with the other blocks' states (the former optimiser)."""
    order = list(blocks[j]) + [q for i, b in enumerate(blocks) if i != j for q in b]
    da, dr = 2 ** len(blocks[j]), 2 ** (n - len(blocks[j]))
    h_t = h_mat.reshape((2,) * 2 * n).transpose(order + [n + q for q in order])
    rest = kron_all([np.ones((1, 1))] + [s.reshape(-1, 1) for i, s in enumerate(states)
                                          if i != j]).reshape(-1)
    return np.einsum("arbs,r,s->ab", h_t.reshape(da, dr, da, dr), rest.conj(), rest)


class TestMeanField:
    """A product state's energy is sum_B <H_B> plus the Bloch-vector sum
    over the edges between blocks, and block A's mean-field Hamiltonian
    H_A + sum_{i in A} f_i . sigma^i is the dense contraction of H with
    the other blocks' states up to a constant."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_energy_and_effective_hamiltonian(self, n):
        rng = np.random.default_rng(n)
        for lattice in _lattices(n):
            for params in PARAMS:
                ham = SpinHamiltonian(lattice, params)
                coupling = 0.5 * np.array([params.jx, params.jy, params.jz])
                for _ in range(3):
                    k = int(rng.integers(1, n + 1))
                    parts = list(iter_k_partitions(n, k))
                    blocks = parts[rng.integers(len(parts))].blocks
                    states = []
                    for block in blocks:
                        v = rng.standard_normal(2 ** len(block)) * (1 + 0j)
                        v += 1j * rng.standard_normal(v.size)
                        states.append(v / np.linalg.norm(v))
                    bloch = np.zeros((n, 3))
                    for block, state in zip(blocks, states):
                        bloch[list(block)] = _bloch(state)
                    block_of = {q: b for b, block in enumerate(blocks) for q in block}
                    between = [(i, l) for i, l in lattice.edges if block_of[i] != block_of[l]]

                    psi = _product_state(blocks, states, n)
                    energy = sum(np.vdot(s, ham.block(b) @ s).real for b, s in zip(blocks, states))
                    energy += sum(coupling @ (bloch[i] * bloch[l]) for i, l in between)
                    assert abs(energy - np.vdot(psi, ham.dense() @ psi).real) < 1e-12

                    for j, block in enumerate(blocks):
                        d = 2 ** len(block)
                        field = np.zeros((len(block), 3))
                        for i, l in between:
                            for a, b in ((i, l), (l, i)):
                                if block_of[a] == j:
                                    field[block.index(a)] += coupling * bloch[b]
                        heff = ham.block(block) + (
                            field.reshape(-1) @ manybody._site_paulis(len(block))).reshape(d, d)
                        diff = heff - _dense_contraction(ham.dense(), blocks, states, j, n)
                        shift = np.trace(diff).real / d
                        assert np.max(np.abs(diff - shift * np.eye(d))) < 1e-12


def _eigh_sweep(ham, blocks, x):
    """One sweep from the Bloch vectors x (n x 3, site order) with every
    block, single sites too, updated to a ground vector from
    np.linalg.eigh of its mean-field Hamiltonian, the fields summed edge
    by edge: the new Bloch vectors (site order) and the block states."""
    coupling = 0.5 * np.array([ham.params.jx, ham.params.jy, ham.params.jz])
    bloch = np.array(x, dtype=float)
    states = []
    for block in blocks:
        field = np.zeros((len(block), 3))
        for i, l in ham.lattice.edges:
            for a, b in ((i, l), (l, i)):
                if a in block and b not in block:
                    field[block.index(a)] += coupling * bloch[b]
        d = 2 ** len(block)
        heff = ham.block(block) + (
            field.reshape(-1) @ manybody._site_paulis(len(block))).reshape(d, d)
        states.append(np.linalg.eigh(heff)[1][:, 0])
        bloch[list(block)] = _bloch(states[-1])
    return bloch, states


def _block_sweep(ham, rows, restarts, x):
    """One _BlockSweep of the batch `rows` from x, shape (rows * restarts,
    n, 3) in site order: G(x) in site order, and the energies."""
    orders = np.argsort(rows, axis=1, kind="stable")
    orders = orders[np.repeat(np.arange(len(rows)), restarts)]
    at = np.arange(len(x))[:, None]
    out, energy = manybody._BlockSweep(ham, rows, restarts)(x[at, orders].reshape(len(x), -1))
    g = np.empty_like(x)
    g[at, orders] = out.reshape(x.shape)
    return g, energy


def _check_sweep(ham, rows, restarts, x):
    """_block_sweep against _eigh_sweep, row by row: Bloch vectors, and
    the energy against <psi|H|psi> of the product state it builds."""
    g, energy = _block_sweep(ham, rows, restarts, x)
    for r, row in enumerate(np.repeat(rows, restarts, axis=0)):
        blocks = [tuple(np.flatnonzero(row == b).tolist()) for b in range(row.max() + 1)]
        bloch, states = _eigh_sweep(ham, blocks, x[r])
        assert np.max(np.abs(g[r] - bloch)) < 1e-12, (row, r)
        psi = _product_state(blocks, states, ham.n)
        assert abs(energy[r] - np.vdot(psi, ham.dense() @ psi).real) < 1e-12, (row, r)
    return g


# PARAMS without Jy alone: that turns every Bloch vector to +-y, so mean
# fields cancel to rounding and a single site's update is a tie, which
# the closed form and eigh may break differently
SWEEP_PARAMS = PARAMS[:5] + [HeisenbergParams(0.8, -0.4, 1.3, 0.9)]


class TestSweepArithmetic:
    """One sweep of _BlockSweep against block-by-block eigh updates: a
    single site is updated in closed form, and the energy, read in one
    pass, is that of the product state the sweep builds."""

    @pytest.mark.parametrize("params", SWEEP_PARAMS)
    def test_single_sites_in_closed_form(self, params):
        rng = np.random.default_rng(7)
        for lattice in (Lattice.chain(4), Lattice.ring(5)):
            x = rng.standard_normal((6, lattice.n, 3))
            x[0] = 0.0  # site 0 starts in the field h z alone, b = 0 at h = 0
            g = _check_sweep(SpinHamiltonian(lattice, params), np.arange(lattice.n)[None], 6, x)
            if params.h == 0:
                assert np.array_equal(g[0, 0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("n", range(3, 7))
    def test_one_pass_energy_is_the_product_state_energy(self, n):
        """Batches of partitions that mix single sites and larger blocks,
        two restarts each.  A chain or ring has no isolated site, which
        at h = 0 would make its block's ground level degenerate."""
        rng = np.random.default_rng(n)
        for lattice in (Lattice.chain(n), Lattice.ring(n)):
            for params in SWEEP_PARAMS:
                ham = SpinHamiltonian(lattice, params)
                for k in range(2, n):
                    rows = np.concatenate(list(k_partition_rows(n, k)))
                    sizes = np.array([np.bincount(row) for row in rows])
                    mixed = rows[(sizes == 1).any(axis=1)]
                    pick = mixed[rng.integers(len(mixed))]
                    batch = rows[(sizes == np.bincount(pick)).all(axis=1)]
                    batch = batch[np.sort(rng.permutation(len(batch))[:3])]
                    _check_sweep(ham, batch, 2, rng.standard_normal((2 * len(batch), n, 3)))

    def test_compacted_rows_sweep_as_before(self):
        ham = SpinHamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.3, h=0.7))
        rows = np.concatenate(list(k_partition_rows(6, 3)))
        rows = rows[[tuple(np.bincount(row)) == (3, 2, 1) for row in rows]]
        sweep = manybody._BlockSweep(ham, rows, 2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2 * len(rows), 18))
        out, energy = sweep(x)
        keep = rng.random(len(x)) < 0.5
        sweep.compact(keep)
        kept_out, kept_energy = sweep(x[keep])
        assert np.max(np.abs(kept_out - out[keep])) <= 1e-12
        assert np.max(np.abs(kept_energy - energy[keep])) <= 1e-12

    def test_single_site_search_needs_no_eigensolve(self, monkeypatch):
        def refuse(heff):
            raise AssertionError("eigensolve")

        monkeypatch.setattr(manybody, "_ground_pairs", refuse)
        for lattice in (Lattice.ring(6), Lattice.chain(5)):
            ham = SpinHamiltonian(lattice, HeisenbergParams.from_gamma(0.3, h=0.7))
            assert min_ksep_energy(ham, lattice.n, restarts=2, seed=0).converged
            with pytest.raises(AssertionError, match="eigensolve"):
                min_ksep_energy(ham, lattice.n - 1, restarts=2, seed=0)

RING8_CHAIN = {
    2: -6.487154267775844,
    3: -6.232050807568863,
    4: -5.999999999999986,
    5: -5.366222282372174,
    6: -4.881648914277299,
    7: -4.414213562373096,
    8: -4.0,
}


class TestMinKsepEnergy:
    def test_never_builds_the_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix built")

        ham = SpinHamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.3, h=0.2))
        monkeypatch.setattr(SpinHamiltonian, "dense", refuse)
        for k in range(2, 7):
            assert np.isfinite(min_ksep_energy(ham, k, restarts=2, seed=0).energy)

    def test_dense_matrix_is_refused(self):
        h_mat = heisenberg_hamiltonian(Lattice.ring(4), HeisenbergParams())
        for call in (lambda h: min_ksep_energy(h, 2), entanglement_gaps,
                     lambda h: thermal_state(h, 0.5), ground_state_dm,
                     lambda h: partition_function(h, 0.5), lambda h: thermal_energy(h, 0.5),
                     ground_vector):
            with pytest.raises(DomainError, match=r"SpinHamiltonian\(lattice, params\)"):
                call(h_mat)

    def test_diagonal_hamiltonian_exact(self):
        # all-J=0 field Hamiltonian is diagonal in the product basis, so the
        # full product ansatz reaches the exact minimum
        h = SpinHamiltonian(Lattice.chain(3), HeisenbergParams(0, 0, 0, h=0.9))
        res = min_ksep_energy(h, 3, restarts=4, seed=0)
        assert res.energy == pytest.approx(float(hermitian_spectrum(h.dense())[0]), abs=1e-9)
        assert res.converged

    def test_e2sep_at_least_ground(self, rng):
        h = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.4, h=0.2))
        e0 = float(hermitian_spectrum(h.dense())[0])
        res = min_ksep_energy(h, 2, restarts=8, seed=0)
        assert res.energy >= e0 - 1e-9

    def test_k1_is_exact_ground(self):
        h = SpinHamiltonian(Lattice.chain(3), HeisenbergParams.from_gamma(0.0))
        assert min_ksep_energy(h, 1).energy == pytest.approx(
            float(hermitian_spectrum(h.dense())[0]))

    def test_full_product_matches_bloch_grid(self):
        # independent oracle: coarse Bloch-angle grid plus Nelder-Mead polish
        # over all four qubits at once
        h = SpinHamiltonian(Lattice.chain(4), HeisenbergParams.from_gamma(0.0))

        def product_energy(angles):
            vec = np.array([1.0 + 0j])
            for theta, phi in angles.reshape(-1, 2):
                q = np.array([np.cos(theta / 2),
                              np.exp(1j * phi) * np.sin(theta / 2)])
                vec = np.kron(vec, q)
            return float(np.real(vec.conj() @ (h.dense() @ vec)))

        best = np.inf
        best_x = None
        grid = np.linspace(0, np.pi, 7)
        rng = np.random.default_rng(3)
        for _ in range(60):
            x = np.concatenate([
                rng.choice(grid, 4).reshape(-1, 1),
                rng.uniform(0, 2 * np.pi, (4, 1))], axis=1).reshape(-1)
            res = minimize(product_energy, x, method="Nelder-Mead",
                           options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000})
            if res.fun < best:
                best, best_x = res.fun, res.x
        ours = min_ksep_energy(h, 4, restarts=16, seed=0)
        assert ours.energy == pytest.approx(best, abs=1e-4)

    def test_ring8_chain_to_the_bit(self):
        """E_ksep of the isotropic ring(8), pinned with ==: any change to
        the partitions searched, their order, the start states or the
        sweep arithmetic moves some last bit."""
        ham = SpinHamiltonian(Lattice.ring(8), HeisenbergParams.from_gamma(0.0))
        for k, want in RING8_CHAIN.items():
            res = min_ksep_energy(ham, k, restarts=2, seed=0)
            assert res.converged and res.energy == want, (k, res.energy)

    def test_k_domain(self):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams())
        with pytest.raises(DomainError):
            min_ksep_energy(h, 3)

    def test_restarts_domain(self):
        h = SpinHamiltonian(Lattice.chain(2), HeisenbergParams())
        for restarts in (0, -1):
            with pytest.raises(DomainError, match="restarts must be at least 1"):
                min_ksep_energy(h, 2, restarts=restarts)


def _representatives(n, k, group):
    """The Partitions of the rows orbit_representatives keeps, chunk by
    chunk of k_partition_rows, in enumeration order."""
    return tuple(Partition([np.flatnonzero(row == b) for b in range(k)])
                 for chunk in k_partition_rows(n, k)
                 for row in orbit_representatives(chunk, group))


ORBIT_GRID = [(lattice, n, params, seeds)
              for lattice in (Lattice.ring, Lattice.chain)
              for params in (HeisenbergParams.from_gamma(0.0),
                             HeisenbergParams.from_gamma(0.3, h=0.7))
              for n, seeds in ((3, (0, 1, 2)), (4, (0, 1, 2)), (5, (0,)))]
ORBIT_GRID += [(Lattice.ring, 6, HeisenbergParams.from_gamma(0.0), (0,)),
               (Lattice.chain, 6, HeisenbergParams.from_gamma(0.3, h=0.7), (0,))]


class TestOrbitSearch:
    """min_ksep_energy searches one partition per lattice-automorphism
    orbit, with `restarts` starts for each."""

    @pytest.mark.parametrize("lattice,n,params,seeds", ORBIT_GRID, ids=[
        f"{case[0].__name__}-{case[1]}-{case[2].jz}-{case[2].h}" for case in ORBIT_GRID])
    def test_matches_the_full_search(self, lattice, n, params, seeds):
        ham = SpinHamiltonian(lattice(n), params)
        orbit = {(k, seed): min_ksep_energy(ham, k, restarts=4, seed=seed)
                 for k in range(2, n + 1) for seed in seeds}
        with pytest.MonkeyPatch.context() as patch:
            # the identity group: every partition is searched
            patch.setattr(Lattice, "automorphisms", lambda self: np.arange(self.n)[None])
            for (k, seed), ours in orbit.items():
                full = min_ksep_energy(ham, k, restarts=4, seed=seed)
                assert abs(ours.energy - full.energy) <= 1e-10, (k, seed, ours, full)
                assert ours.converged and full.converged, (k, seed)

    def test_nonconverged_names_the_representatives(self):
        for lattice in (Lattice.ring(6), Lattice.chain(5)):
            ham = SpinHamiltonian(lattice, HeisenbergParams.from_gamma(0.0))
            group = lattice.automorphisms()
            for k in range(2, lattice.n):
                res = min_ksep_energy(ham, k, restarts=2, seed=0, max_iter=1)
                assert res.nonconverged == _representatives(lattice.n, k, group)
                assert len(res.nonconverged) < len(list(iter_k_partitions(lattice.n, k)))

    def test_cap_counts_the_orbits_searched(self, monkeypatch):
        # ring(8) at k = 4: S(8,4) = 1701 partitions, |G| = 16, 137 orbits
        ham = SpinHamiltonian(Lattice.ring(8), HeisenbergParams.from_gamma(0.0))
        monkeypatch.setattr(manybody, "DEFAULT_ENUMERATION_CAP", 137)
        # one sweep stops no row, so every orbit searched is named
        res = min_ksep_energy(ham, 4, restarts=1, seed=0, max_iter=1)
        assert res.nonconverged == _representatives(8, 4, Lattice.ring(8).automorphisms())
        for cap in (110, 136):  # 1701 <= 16 * cap: the walk starts, orbit cap + 1 is refused
            monkeypatch.setattr(manybody, "DEFAULT_ENUMERATION_CAP", cap)
            with pytest.raises(ResourceError, match=f"more than {cap} lattice-automorphism"):
                min_ksep_energy(ham, 4, restarts=1, seed=0, max_iter=1)

    def test_cap_refuses_before_any_sweep(self, monkeypatch):
        # 1701 > 16 * 100: more orbits than the cap, refused on S(8,4) alone
        def refuse(*args):
            raise AssertionError("swept")

        ham = SpinHamiltonian(Lattice.ring(8), HeisenbergParams.from_gamma(0.0))
        monkeypatch.setattr(manybody, "DEFAULT_ENUMERATION_CAP", 100)
        monkeypatch.setattr(manybody, "_sweep_batch", refuse)
        with pytest.raises(ResourceError,
                           match="1701 4-partitions of 8 labels exceeds the cap 1600"):
            min_ksep_energy(ham, 4, restarts=1, seed=0)

    @pytest.mark.parametrize("cap,message", [(100, "exceeds the cap 1600"),
                                             (110, "more than 110 lattice-automorphism")])
    def test_cap_exits_3(self, monkeypatch, capsys, cap, message):
        monkeypatch.setattr(manybody, "DEFAULT_ENUMERATION_CAP", cap)
        assert cli.main(["manybody", "--n", "8", "--ks", "4", "--restarts", "1"]) == 3
        assert message in capsys.readouterr().err


class TestLapackFailure:
    """np.linalg.eigh can raise LinAlgError on an ordinary Hermitian
    matrix; the sweep redoes the failing matrices through the real
    embedding [[Re, -Im], [Im, Re]]."""

    @staticmethod
    def _failing_on(monkeypatch, bad):
        """np.linalg.eigh raising on every complex batch or matrix that
        holds a matrix of the list `bad` (if empty, the last matrix of the
        first batch) and solving the others; returns the shapes of the
        real matrices it solved."""
        eigh = np.linalg.eigh
        real_calls = []

        def flaky(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim == 3 and not bad:
                bad.append(a[-1].copy())
            if not np.iscomplexobj(a):
                real_calls.append(a.shape)
            elif any(a.shape[-2:] == m.shape and any(np.array_equal(row, m) for row in
                                                     a.reshape(-1, *m.shape)) for m in bad):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
        return real_calls

    def test_failing_row_gets_its_ground_vector(self, monkeypatch, rng):
        d = 8
        heff = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        heff += heff.conj().transpose(0, 2, 1)
        want_values, want_vectors = np.linalg.eigh(heff)
        real_calls = self._failing_on(monkeypatch, [heff[3]])
        values, vectors = manybody._ground_pairs(heff)
        assert real_calls == [(2 * d, 2 * d)]
        assert np.max(np.abs(values - want_values[:, 0])) < 1e-12
        overlaps = np.abs(np.einsum("ri,ri->r", want_vectors[..., 0].conj(), vectors))
        assert np.max(np.abs(overlaps - 1)) < 1e-12
        assert np.max(np.abs(np.einsum("rij,rj->ri", heff, vectors)
                             - values[:, None] * vectors)) < 1e-12

    def test_search_survives_one_failure(self, monkeypatch):
        """One row of the first sweep fails in the batch and alone; the
        search ends where it does without the failure."""
        ham = SpinHamiltonian(Lattice.ring(5), HeisenbergParams.from_gamma(0.3, h=0.7))
        want = min_ksep_energy(ham, 2, restarts=2, seed=1)
        real_calls = self._failing_on(monkeypatch, [])
        got = min_ksep_energy(ham, 2, restarts=2, seed=1)
        assert real_calls
        assert got.converged and abs(got.energy - want.energy) < 1e-12


class TestGapChain:
    def test_ordering_ring4(self):
        for h in (0.0, 1.0):
            hm = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0, h=h))
            report = entanglement_gaps(hm, restarts=8, seed=0)
            chain = [report.e0] + [report.energies[k] for k in range(2, 5)]
            assert all(a <= b + 2e-6 for a, b in zip(chain, chain[1:]))

    def test_ground_concurrence_near_unity_inside_window(self):
        # somewhere in |h| < 2 the ground state is close to maximal GME
        hm = heisenberg_hamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.0))
        _, evecs = np.linalg.eigh(hm)
        from multisep import cgme_pure
        ground = StateVector(qubits(6), evecs[:, 0])
        assert cgme_pure(ground).value > 0.9


class TestGapWitness:
    def test_ground_state_detected(self):
        h = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0))
        report = entanglement_gaps(h, ks=[2], restarts=8, seed=0)
        assert report.gap(2) > 1e-3
        assert gap_witness_detects(ground_state_dm(h), report, 2)

    def test_hot_thermal_not_detected(self):
        h = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0))
        report = entanglement_gaps(h, ks=[2], restarts=8, seed=0)
        rho = thermal_state(h, 1e6)
        assert not gap_witness_detects(rho, report, 2)

    def test_strong_field_closes_gap(self):
        h = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0, h=3.0))
        e0 = float(hermitian_spectrum(h.dense())[0])
        res = min_ksep_energy(h, 2, restarts=8, seed=0, lower_bound=e0)
        assert res.energy - e0 < 1e-6
        report = entanglement_gaps(h, ks=[2], restarts=8, seed=0)
        assert not gap_witness_detects(ground_state_dm(h), report, 2)

    def test_shape_mismatch(self):
        h = SpinHamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0))
        report = entanglement_gaps(h, ks=[2], restarts=2, seed=0)
        with pytest.raises(DomainError):
            gap_witness_detects(maximally_mixed(qubits(3)), report, 2)
        with pytest.raises(DomainError):
            gap_witness_detects(maximally_mixed(qubits(4)), report, 3)


RING6_EXACT = {
    2: -(3 + np.sqrt(3)),   # a singlet pair beside the open 4-chain ground state
    3: -4.5,                # three singlet pairs
    5: -(2 + np.sqrt(2)),
    6: -3.0,                # the Neel state
}


class TestClosedFormAnchors:
    """E_ksep of the isotropic ring(6) and ring(9) against their exact
    values, which the accelerated search reaches to rounding."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ring6(self, seed):
        ham = SpinHamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.0))
        assert abs(ham.spectrum()[0][0] + 2 + np.sqrt(13)) < 1e-10
        for k, exact in RING6_EXACT.items():
            res = min_ksep_energy(ham, k, restarts=2, seed=seed)
            assert res.converged and abs(res.energy - exact) < 1e-10, (k, res.energy)

    def test_ring9_full_product(self):
        # neighbours at angle 8 pi / 9, the most a 9-ring can close with
        ham = SpinHamiltonian(Lattice.ring(9), HeisenbergParams.from_gamma(0.0))
        res = min_ksep_energy(ham, 9, restarts=2, seed=1)
        assert res.converged and abs(res.energy - 4.5 * np.cos(8 * np.pi / 9)) < 1e-10

    @pytest.mark.parametrize("n", [3, 5])
    def test_degenerate_blocks_converge(self, n):
        # a singlet pair leaves the rest in zero field, whose ground level
        # is degenerate, so its Bloch vectors never settle
        ham = SpinHamiltonian(Lattice.ring(n), HeisenbergParams.from_gamma(0.0))
        for seed in range(3):
            assert min_ksep_energy(ham, 2, restarts=2, seed=seed).converged

    def test_anisotropic_chain_converges(self):
        ham = SpinHamiltonian(Lattice.chain(7), HeisenbergParams.from_gamma(0.3, h=0.2))
        assert min_ksep_energy(ham, 3, restarts=1, seed=5).converged

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_slow_partition_within_100_sweeps(self, seed):
        """(0,1)|(2,3,4,5) of ring(6): at the optimum its blocks decouple,
        so plain alternating sweeps creep toward it for over 1000 sweeps."""
        ham = SpinHamiltonian(Lattice.ring(6), HeisenbergParams.from_gamma(0.0))
        rng = np.random.default_rng(seed)
        starts = []
        for size in (2, 4):
            v = rng.standard_normal((1, 2, 2 ** size)) * (1 + 0j)
            v += 1j * rng.standard_normal(v.shape)
            starts.append(v / np.linalg.norm(v, axis=2, keepdims=True))
        energy, converged = manybody._sweep_batch(
            ham, np.array([[0, 0, 1, 1, 1, 1]]), starts, 1e-10, 100)
        assert converged[0] and abs(energy[0] + 3 + np.sqrt(3)) < 1e-12
