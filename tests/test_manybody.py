import numpy as np
import pytest
from scipy.optimize import minimize

from multisep import (
    DomainError,
    HeisenbergParams,
    Lattice,
    StateVector,
    entanglement_gaps,
    gap_witness_detects,
    ground_state_dm,
    heisenberg_hamiltonian,
    hermitian_spectrum,
    maximally_mixed,
    min_ksep_energy,
    partition_function,
    qubits,
    thermal_state,
)

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
        with pytest.raises(DomainError):
            heisenberg_hamiltonian(Lattice.chain(15), HeisenbergParams())


class TestThermal:
    def test_infinite_temperature_limit(self):
        h = heisenberg_hamiltonian(Lattice.chain(2), HeisenbergParams.from_gamma(0.0))
        rho = thermal_state(h, 1e6)
        assert np.max(np.abs(rho.mat - np.eye(4) / 4)) < 1e-4

    def test_zero_temperature_limit(self):
        h = heisenberg_hamiltonian(Lattice.chain(2),
                                   HeisenbergParams.from_gamma(0.0, h=0.1))
        rho = thermal_state(h, 1e-4)
        evals, evecs = np.linalg.eigh(h)
        ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
        assert np.max(np.abs(rho.mat - ground)) < 1e-9

    def test_partition_function_definition(self):
        h = heisenberg_hamiltonian(Lattice.chain(2), HeisenbergParams.from_gamma(0.3))
        kT = 0.8
        direct = sum(np.exp(-e / kT) for e in hermitian_spectrum(h))
        assert partition_function(h, kT) == pytest.approx(direct)

    def test_temperature_domain(self):
        h = heisenberg_hamiltonian(Lattice.chain(2), HeisenbergParams())
        with pytest.raises(DomainError):
            thermal_state(h, 0.0)

    def test_ground_manifold_mixture(self):
        h = heisenberg_hamiltonian(Lattice.ring(3), HeisenbergParams.from_gamma(0.0))
        rho = ground_state_dm(h)
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        evals = hermitian_spectrum(h)
        energy = np.trace(rho.mat @ h).real
        assert energy == pytest.approx(evals[0], abs=1e-9)


class TestMinKsepEnergy:
    def test_diagonal_hamiltonian_exact(self):
        # all-J=0 field Hamiltonian is diagonal in the product basis, so the
        # full product ansatz reaches the exact minimum
        h = heisenberg_hamiltonian(Lattice.chain(3), HeisenbergParams(0, 0, 0, h=0.9))
        res = min_ksep_energy(h, 3, restarts=4, seed=0)
        assert res.energy == pytest.approx(float(hermitian_spectrum(h)[0]), abs=1e-9)
        assert res.converged

    def test_e2sep_at_least_ground(self, rng):
        h = heisenberg_hamiltonian(Lattice.ring(4),
                                   HeisenbergParams.from_gamma(0.4, h=0.2))
        e0 = float(hermitian_spectrum(h)[0])
        res = min_ksep_energy(h, 2, restarts=8, seed=0)
        assert res.energy >= e0 - 1e-9

    def test_k1_is_exact_ground(self):
        h = heisenberg_hamiltonian(Lattice.chain(3), HeisenbergParams.from_gamma(0.0))
        assert min_ksep_energy(h, 1).energy == pytest.approx(
            float(hermitian_spectrum(h)[0]))

    def test_full_product_matches_bloch_grid(self):
        # independent oracle: coarse Bloch-angle grid plus Nelder-Mead polish
        # over all four qubits at once
        h = heisenberg_hamiltonian(Lattice.chain(4), HeisenbergParams.from_gamma(0.0))

        def product_energy(angles):
            vec = np.array([1.0 + 0j])
            for theta, phi in angles.reshape(-1, 2):
                q = np.array([np.cos(theta / 2),
                              np.exp(1j * phi) * np.sin(theta / 2)])
                vec = np.kron(vec, q)
            return float(np.real(vec.conj() @ (h @ vec)))

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

    def test_k_domain(self):
        h = heisenberg_hamiltonian(Lattice.chain(2), HeisenbergParams())
        with pytest.raises(DomainError):
            min_ksep_energy(h, 3)

    def test_restarts_domain(self):
        h = heisenberg_hamiltonian(Lattice.chain(2), HeisenbergParams())
        for restarts in (0, -1):
            with pytest.raises(DomainError, match="restarts must be at least 1"):
                min_ksep_energy(h, 2, restarts=restarts)


class TestGapChain:
    def test_ordering_ring4(self):
        for h in (0.0, 1.0):
            hm = heisenberg_hamiltonian(Lattice.ring(4),
                                        HeisenbergParams.from_gamma(0.0, h=h))
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
        h = heisenberg_hamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0))
        report = entanglement_gaps(h, ks=[2], restarts=8, seed=0)
        assert report.gap(2) > 1e-3
        assert gap_witness_detects(ground_state_dm(h), report, 2)

    def test_hot_thermal_not_detected(self):
        h = heisenberg_hamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0))
        report = entanglement_gaps(h, ks=[2], restarts=8, seed=0)
        rho = thermal_state(h, 1e6)
        assert not gap_witness_detects(rho, report, 2)

    def test_strong_field_closes_gap(self):
        h = heisenberg_hamiltonian(Lattice.ring(4),
                                   HeisenbergParams.from_gamma(0.0, h=3.0))
        e0 = float(hermitian_spectrum(h)[0])
        res = min_ksep_energy(h, 2, restarts=8, seed=0, lower_bound=e0)
        assert res.energy - e0 < 1e-6
        report = entanglement_gaps(h, ks=[2], restarts=8, seed=0)
        assert not gap_witness_detects(ground_state_dm(h), report, 2)

    def test_shape_mismatch(self):
        h = heisenberg_hamiltonian(Lattice.ring(4), HeisenbergParams.from_gamma(0.0))
        report = entanglement_gaps(h, ks=[2], restarts=2, seed=0)
        with pytest.raises(DomainError):
            gap_witness_detects(maximally_mixed(qubits(3)), report, 2)
        with pytest.raises(DomainError):
            gap_witness_detects(maximally_mixed(qubits(4)), report, 3)
