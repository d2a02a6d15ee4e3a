import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisep import (
    DensityMatrix,
    DomainError,
    StateVector,
    SystemShape,
    apply_local_unitaries,
    flip_all,
    hermitian_spectrum,
    kron_all,
    load_density_matrix,
    matrix_element,
    partial_trace,
    partial_transpose,
    permute_systems,
    qubits,
    save_density_matrix,
    vec_to_dm,
)
from multisep.states import (
    bell_state,
    dicke_state,
    ghz_state,
    basis_product_state,
    maximally_mixed,
    random_pure_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_sigma_x_pair(self):
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
        assert np.allclose(kron_all([SX, SX]), expected)

    def test_single_factor(self):
        m = np.arange(6).reshape(2, 3)
        assert np.array_equal(kron_all([m]), m)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            kron_all([])

    def test_associative(self, rng):
        mats = [rng.standard_normal((2, 2)) for _ in range(3)]
        left = kron_all([kron_all(mats[:2]), mats[2]])
        right = kron_all([mats[0], kron_all(mats[1:])])
        assert np.allclose(left, right)


class TestMultiIndex:
    def test_examples(self):
        q3 = qubits(3)
        assert q3.encode((0, 0, 0)) == 0
        assert q3.encode((1, 1, 1)) == 7
        assert SystemShape((3, 3)).encode((1, 0)) == 3

    def test_big_endian(self):
        # subsystem 0 is the most significant digit
        assert SystemShape((2, 3)).encode((1, 0)) == 3

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            qubits(2).encode((0, 2))
        with pytest.raises(DomainError):
            qubits(2).decode(4)

    @given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_bijection_exhaustive(self, dims):
        shape = SystemShape(dims)
        if shape.total > 4096:
            return
        seen = set()
        for x in range(shape.total):
            mi = shape.decode(x)
            assert shape.encode(mi) == x
            seen.add(mi)
        assert len(seen) == shape.total


class TestMatrixElement:
    def test_ghz_off_diagonal(self):
        rho = vec_to_dm(ghz_state(3))
        assert matrix_element(rho, (0, 0, 0), (1, 1, 1)) == pytest.approx(0.5)

    def test_maximally_mixed(self):
        rho = maximally_mixed(qubits(2))
        assert matrix_element(rho, (0, 1), (0, 1)) == pytest.approx(0.25)

    def test_product_zero(self):
        rho = vec_to_dm(basis_product_state((0, 0, 0)))
        assert matrix_element(rho, (0, 0, 0), (0, 0, 1)) == 0

    def test_shape_mismatch(self):
        rho = vec_to_dm(ghz_state(3))
        with pytest.raises(DomainError):
            matrix_element(rho, (0, 0), (1, 1))


class TestPartialTrace:
    def test_bell_reduction(self):
        rho = vec_to_dm(bell_state("phi+"))
        red = partial_trace(rho, [1])
        assert np.allclose(red.mat, np.eye(2) / 2)

    def test_product_reduction(self, rng):
        a = random_pure_state(2, rng)
        b = random_pure_state(3, rng)
        rho_a = np.outer(a, a.conj())
        rho = DensityMatrix(SystemShape((2, 3)), np.kron(rho_a, np.outer(b, b.conj())))
        assert np.allclose(partial_trace(rho, [1]).mat, rho_a)

    def test_ghz_first_site(self):
        red = partial_trace(vec_to_dm(ghz_state(3)), [0])
        assert np.allclose(red.mat, np.diag([0.5, 0, 0, 0.5]))

    def test_trace_preserved(self, rng):
        v = random_pure_state(8, rng)
        rho = vec_to_dm(StateVector(qubits(3), v))
        assert np.trace(partial_trace(rho, [0, 2]).mat) == pytest.approx(1.0)

    def test_sequential_matches_joint(self, rng):
        v = random_pure_state(16, rng)
        rho = vec_to_dm(StateVector(qubits(4), v))
        joint = partial_trace(rho, [0, 1])
        seq = partial_trace(partial_trace(rho, [0]), [0])
        assert np.max(np.abs(joint.mat - seq.mat)) < 1e-12

    def test_all_systems_rejected(self):
        rho = vec_to_dm(bell_state("phi+"))
        with pytest.raises(DomainError):
            partial_trace(rho, [0, 1])

    def test_duplicate_labels_rejected(self):
        rho = vec_to_dm(ghz_state(3))
        with pytest.raises(DomainError, match="distinct"):
            partial_trace(rho, [0, 0])


class TestPartialTranspose:
    def test_involution(self, rng):
        v = random_pure_state(8, rng)
        rho = vec_to_dm(StateVector(qubits(3), v))
        pt = partial_transpose(rho, [1])
        back = partial_transpose(DensityMatrix.raw(qubits(3), pt), [1])
        assert np.max(np.abs(back - rho.mat)) < 1e-12

    def test_product_stays_positive_under_every_block(self, rng):
        for _ in range(5):
            factors = [random_pure_state(2, rng) for _ in range(3)]
            mat = kron_all([np.outer(f, f.conj()) for f in factors])
            rho = DensityMatrix(qubits(3), mat)
            for block in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
                assert hermitian_spectrum(partial_transpose(rho, block))[0] > -1e-9

    def test_bell_spectrum(self):
        pt = partial_transpose(vec_to_dm(bell_state("phi+")), [0])
        assert np.allclose(hermitian_spectrum(pt), [-0.5, 0.5, 0.5, 0.5])

    def test_maximally_mixed_unchanged(self):
        rho = maximally_mixed(qubits(2))
        assert np.allclose(partial_transpose(rho, [1]), rho.mat)

    def test_block_bounds(self):
        rho = vec_to_dm(bell_state("phi+"))
        with pytest.raises(DomainError):
            partial_transpose(rho, [])
        with pytest.raises(DomainError):
            partial_transpose(rho, [0, 1])


class TestSpectrum:
    def test_sigma_z(self):
        assert np.allclose(hermitian_spectrum(np.diag([1.0, -1.0])), [-1, 1])

    def test_maximally_mixed(self):
        assert np.allclose(hermitian_spectrum(np.eye(4) / 4), [0.25] * 4)

    def test_state_spectrum_bounds(self, rng):
        v = random_pure_state(8, rng)
        rho = vec_to_dm(StateVector(qubits(3), v))
        spec = hermitian_spectrum(rho.mat)
        assert spec[0] > -1e-9 and spec[-1] <= 1 + 1e-9
        assert np.sum(spec) == pytest.approx(1.0, abs=1e-8)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))


class TestFlip:
    def test_basis_flip(self):
        flipped = flip_all(basis_product_state((0, 0, 0)))
        assert flipped.amplitude((1, 1, 1)) == pytest.approx(1.0)

    def test_ghz_invariant(self):
        ghz = ghz_state(3)
        assert np.allclose(flip_all(ghz).amp, ghz.amp)

    def test_dicke_excitation_flip(self):
        assert np.allclose(flip_all(dicke_state(3, 1)).amp, dicke_state(3, 2).amp)

    def test_involution(self, rng):
        v = StateVector(qubits(3), random_pure_state(8, rng))
        assert np.allclose(flip_all(flip_all(v)).amp, v.amp)

    def test_mixed_dims_rejected(self):
        psi = basis_product_state((0, 0), dims=(2, 3))
        with pytest.raises(DomainError):
            flip_all(psi)


class TestVecToDm:
    def test_basis(self):
        assert np.allclose(vec_to_dm(basis_product_state((0,), dims=(2,))).mat,
                           np.diag([1.0, 0.0]))

    def test_plus_state(self):
        psi = StateVector(SystemShape((2,)), np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(vec_to_dm(psi).mat, np.full((2, 2), 0.5))

    def test_ghz_entries(self):
        rho = vec_to_dm(ghz_state(3))
        nonzero = np.abs(rho.mat) > 1e-12
        assert nonzero.sum() == 4
        assert rho.element((0, 0, 0), (1, 1, 1)) == pytest.approx(0.5)

    def test_outer_product_rule(self, rng):
        psi = StateVector(qubits(2), random_pure_state(4, rng))
        rho = vec_to_dm(psi)
        a, b = (0, 1), (1, 0)
        assert rho.element(a, b) == pytest.approx(
            psi.amplitude(a) * np.conj(psi.amplitude(b)))


class TestValidation:
    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            DensityMatrix(SystemShape((2,)), mat)

    def test_wrong_trace_rejected(self):
        with pytest.raises(DomainError):
            DensityMatrix(SystemShape((2,)), np.eye(2))

    def test_negative_rejected(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DomainError):
            DensityMatrix(SystemShape((2,)), mat)

    def test_raw_bypass(self):
        raw = DensityMatrix.raw(SystemShape((2,)), np.diag([1.5, -0.5]).astype(complex))
        assert raw.element((0,), (0,)) == 1.5

    def test_dense_cap(self):
        with pytest.raises(DomainError):
            DensityMatrix(qubits(4), np.eye(16) / 16, max_dim=8)

    def test_unnormalised_vector_rejected(self):
        with pytest.raises(DomainError):
            StateVector(SystemShape((2,)), [1.0, 1.0])


class TestPermuteAndRotate:
    def test_permutation_roundtrip(self, rng):
        rho = vec_to_dm(StateVector(qubits(3), random_pure_state(8, rng)))
        back = permute_systems(permute_systems(rho, [2, 0, 1]), [1, 2, 0])
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-12

    def test_swap_matches_element_relabel(self):
        rho = vec_to_dm(ghz_state(3))
        rho = vec_to_dm(dicke_state(3, 1))
        swapped = permute_systems(rho, [1, 0, 2])
        assert swapped.element((0, 1, 0), (0, 0, 1)) == pytest.approx(
            rho.element((1, 0, 0), (0, 0, 1)))

    def test_local_unitaries_preserve_spectrum(self, rng):
        rho = vec_to_dm(StateVector(qubits(2), random_pure_state(4, rng)))
        theta = 0.37
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                     dtype=complex)
        rotated = apply_local_unitaries(rho, [u, u])
        assert np.allclose(hermitian_spectrum(rotated.mat), hermitian_spectrum(rho.mat))


class TestJsonFormat:
    def test_roundtrip(self, tmp_path, rng):
        v = random_pure_state(6, rng)
        rho = vec_to_dm(StateVector(SystemShape((2, 3)), v))
        path = tmp_path / "state.json"
        save_density_matrix(rho, path)
        loaded = load_density_matrix(path)
        assert loaded.shape.dims == (2, 3)
        assert np.max(np.abs(loaded.mat - rho.mat)) < 1e-16

    def test_seventeen_digits(self, tmp_path):
        rho = vec_to_dm(ghz_state(2))
        path = tmp_path / "ghz.json"
        save_density_matrix(rho, path)
        assert "0.49999999999999989" in path.read_text()

    def test_reader_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dims": [2], "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]],
        }))
        with pytest.raises(DomainError):
            load_density_matrix(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dims": [2], "re": [[1, 0], [0, 0]]}))
        with pytest.raises(DomainError):
            load_density_matrix(path)
