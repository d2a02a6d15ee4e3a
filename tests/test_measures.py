import numpy as np
import pytest

from multisep import (
    DomainError,
    Partition,
    ProbePair,
    StateVector,
    best_computational_probe,
    cgme_lower_bound,
    cgme_pure,
    ghz_state,
    iter_bipartitions,
    kron_all,
    qubits,
    schmidt_rank,
    vec_to_dm,
    w_state,
)
from multisep.sampling import random_product_pure
from multisep.states import basis_product_state, bell_state, random_pure_state
from multisep.tensor import SystemShape, apply_local_unitaries


def random_local_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _cgme_by_cuts(psi):
    """cgme_pure as one SVD per bipartition, the loop it replaced."""
    tensor = psi.amp.reshape(psi.shape.dims)
    best = None
    for part in iter_bipartitions(psi.shape.n):
        side_a, side_b = (list(block) for block in part.blocks)
        da = int(np.prod([psi.shape.dims[s] for s in side_a]))
        sv = np.linalg.svd(tensor.transpose(side_a + side_b).reshape(da, -1),
                           compute_uv=False)
        c = np.sqrt(max(2.0 * (1.0 - float(np.sum(sv ** 4))), 0.0))
        best = c if best is None else min(best, c)
    return best


class TestCgmePure:
    @pytest.mark.parametrize("dims", [(2,) * n for n in range(2, 10)] + [(2, 3, 2, 4), (3, 2)])
    def test_matches_one_svd_per_cut(self, rng, dims):
        shape = SystemShape(dims)
        for real in (False, True):
            amp = rng.standard_normal(shape.total)
            if not real:
                amp = amp + 1j * rng.standard_normal(shape.total)
            psi = StateVector(shape, amp / np.linalg.norm(amp))
            assert abs(cgme_pure(psi).value - _cgme_by_cuts(psi)) < 1e-12

    def test_ghz3(self):
        assert cgme_pure(ghz_state(3)).value == pytest.approx(1.0)

    def test_biseparable_zero(self):
        amp = kron_all([np.array([[1], [0]], dtype=complex),
                        bell_state("phi+").amp.reshape(-1, 1)]).reshape(-1)
        psi = StateVector(qubits(3), amp)
        assert cgme_pure(psi).value == pytest.approx(0.0, abs=1e-9)

    def test_bell(self):
        assert cgme_pure(bell_state("phi+")).value == pytest.approx(1.0)

    def test_exact_flag(self):
        res = cgme_pure(ghz_state(3))
        assert res.exact and res.name == "cgme"

    def test_needs_two_parties(self):
        psi = StateVector(SystemShape((4,)), [1, 0, 0, 0])
        with pytest.raises(DomainError):
            cgme_pure(psi)

    def test_local_unitary_invariance(self, rng):
        for base in (ghz_state(3), w_state(3)):
            reference = cgme_pure(base).value
            rho = vec_to_dm(base)
            for _ in range(100):
                us = [random_local_unitary(rng) for _ in range(3)]
                rotated = apply_local_unitaries(rho, us)
                evals, evecs = np.linalg.eigh(rotated.mat)
                psi = StateVector(qubits(3), evecs[:, -1])
                assert cgme_pure(psi).value == pytest.approx(reference, abs=1e-9)


class TestCgmeBound:
    def test_tight_on_ghz(self):
        rho = vec_to_dm(ghz_state(3))
        res = cgme_lower_bound(rho, ProbePair((0, 0, 0), (1, 1, 1)))
        assert res.value == pytest.approx(1.0)
        assert not res.exact

    def test_clamped_for_biseparable(self, rng):
        part = Partition([(0,), (1, 2)])
        vec = random_product_pure(qubits(3), part, rng)
        rho = vec_to_dm(StateVector(qubits(3), vec))
        assert cgme_lower_bound(rho, ProbePair((0, 0, 0), (1, 1, 1))).value == 0.0

    def test_iso_family_closed_form(self):
        from multisep import family_state
        rho = family_state("ghz-iso", n=3, d=2, alpha=0.5)
        res = cgme_lower_bound(rho, ProbePair((0, 0, 0), (1, 1, 1)))
        assert res.value == pytest.approx(2 * (0.25 - 3 / 16))

    def test_never_exceeds_pure_value(self, rng):
        # with the best computational-basis probe, which plays the role of
        # rotating the largest off-diagonal element into position
        for _ in range(200):
            amp = random_pure_state(8, rng)
            psi = StateVector(qubits(3), amp)
            rho = vec_to_dm(psi)
            probe = best_computational_probe(rho)
            assert cgme_lower_bound(rho, probe).value <= cgme_pure(psi).value + 1e-9


class TestSchmidtRank:
    def test_product(self):
        assert schmidt_rank(basis_product_state((0, 1, 0)), [0]) == 1
        assert schmidt_rank(basis_product_state((0, 1, 0)), [0, 2]) == 1

    def test_bell(self):
        assert schmidt_rank(bell_state("phi+"), [0]) == 2

    def test_ghz_cut(self):
        assert schmidt_rank(ghz_state(3), [0]) == 2
        assert schmidt_rank(ghz_state(3), [0, 1]) == 2

    def test_bounded_by_cut_dimension(self, rng):
        for _ in range(20):
            psi = StateVector(SystemShape((2, 3, 2)), random_pure_state(12, rng))
            assert schmidt_rank(psi, [0]) <= 2
            assert schmidt_rank(psi, [1]) <= 3
            assert schmidt_rank(psi, [0, 2]) <= 3   # min(4, 3)

    def test_invalid_cut(self):
        with pytest.raises(DomainError):
            schmidt_rank(ghz_state(3), [0, 1, 2])
