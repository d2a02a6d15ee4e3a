import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisep import (
    DensityMatrix,
    DomainError,
    ResourceError,
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
from multisep import (
    HeisenbergParams,
    Lattice,
    SpinHamiltonian,
    family_state,
    heisenberg_hamiltonian,
    mix_white_noise,
    ppt_check,
    tensor,
    thermal_state,
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


class TestRowCodec:
    """encode_rows / decode_rows against the one-index encode / decode."""

    def test_round_trip_on_mixed_dims(self, rng):
        shape = SystemShape((2, 3, 4))
        labels = [shape.decode(x) for x in rng.permutation(shape.total)]
        flat = shape.encode_rows(labels)
        assert flat.dtype == np.int64
        assert flat.tolist() == [shape.encode(mi) for mi in labels]
        rows = shape.decode_rows(flat)
        assert rows.dtype == np.int64 and rows.shape == (shape.total, 3)
        assert [tuple(r) for r in rows.tolist()] == labels
        assert shape.encode_rows(rows).tolist() == flat.tolist()

    def test_round_trip_on_an_object_dtype_shape(self, rng):
        shape = qubits(64)  # 2^64 > int64: exact Python ints
        labels = rng.integers(0, 2, size=(20, 64)).tolist() + [[1] * 64, [0] * 64]
        flat = shape.encode_rows(labels)
        assert flat.dtype == object
        assert flat.tolist() == [shape.encode(mi) for mi in labels]
        assert flat[-2] == 2 ** 64 - 1 and type(flat[-2]) is int
        assert shape.decode_rows(flat).tolist() == labels
        assert [tuple(r) for r in shape.decode_rows(flat).tolist()] == [
            shape.decode(x) for x in flat]

    @pytest.mark.parametrize("labels, first_bad", [
        ([(0, 0, 0), (1, 3, 0), (2, 0, 0)], 1),
        ([(1, 2, 3), (0, 0, -1)], 1),
        ([(0, 0, 0), (0, 0), (9, 9, 9)], 1),
        ([(0, 0, 0), (0, 0, 2 ** 70)], 1),
        ([(0, 0, 4), (0, 0, 0)], 0),
    ])
    def test_a_bad_row_raises_for_the_first_one(self, labels, first_bad):
        shape = SystemShape((2, 3, 4))
        with pytest.raises(DomainError) as scalar:
            shape.validate_index(labels[first_bad])
        with pytest.raises(DomainError) as rows:
            shape.encode_rows(labels)
        assert str(rows.value) == str(scalar.value)
        assert str(labels[first_bad]).replace(" ", "") in str(rows.value).replace(" ", "")

    def test_decode_rows_range(self):
        shape = SystemShape((2, 3, 4))
        with pytest.raises(DomainError, match=re.escape("flat index 24 out of range [0, 24)")):
            shape.decode_rows([0, 24, -1])

    def test_no_rows(self):
        shape = SystemShape((2, 3))
        assert shape.encode_rows([]).shape == (0,)
        assert shape.decode_rows([]).shape == (0, 2)


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

    def test_stack_of_matrices(self, rng):
        mats = rng.standard_normal((3, 2, 5, 5)) + 1j * rng.standard_normal((3, 2, 5, 5))
        mats = mats + np.swapaxes(mats, -1, -2).conj()
        spectra = hermitian_spectrum(mats)
        assert spectra.shape == (3, 2, 5)
        for i in range(3):
            for j in range(2):
                assert spectra[i, j].tobytes() == hermitian_spectrum(mats[i, j]).tobytes()
        mats[2, 1, 0, 1] += 1e-3
        with pytest.raises(DomainError, match="not Hermitian"):
            hermitian_spectrum(mats)
        with pytest.raises(DomainError, match="square"):
            hermitian_spectrum(np.zeros((2, 3, 4)))


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

    def test_qutrits_equal_the_per_index_permutation(self, rng):
        shape = SystemShape((3, 3, 3))
        # each index's labels flipped one at a time through decode / encode
        perm = np.array([shape.encode(tuple(2 - x for x in shape.decode(i)))
                         for i in range(shape.total)])
        psi = StateVector(shape, random_pure_state(27, rng))
        want = np.empty_like(psi.amp)
        want[perm] = psi.amp
        assert flip_all(psi).amp.tobytes() == want.tobytes()
        rho = vec_to_dm(psi)
        want = np.empty_like(rho.mat)
        want[np.ix_(perm, perm)] = rho.mat
        assert flip_all(rho).mat.tobytes() == want.tobytes()


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

    def test_dense_cap(self, monkeypatch):
        # validated, a 16 x 16 matrix counts itself and the two temporaries
        # of its Hermiticity check: 3 * 16 * 16^2 bytes; raw, 16 * 16^2
        monkeypatch.setattr(tensor, "_DENSE_BYTES", 3 * 16 * 16 ** 2 - 1)
        with pytest.raises(ResourceError, match="needs 12288 bytes, over the budget of 12287"):
            DensityMatrix(qubits(4), np.eye(16) / 16)
        assert DensityMatrix.raw(qubits(4), np.eye(16) / 16).element((0,) * 4, (0,) * 4) == 1 / 16

    def test_one_budget_moves_every_dense_step(self, monkeypatch):
        # every dense step checks through tensor._DENSE_BYTES, read at
        # call time, so at a budget of 0 each one refuses
        psi = ghz_state(3)
        rho = vec_to_dm(psi)
        prov = family_state("ghz-iso", n=3, alpha=0.5, representation="provider")
        params = HeisenbergParams.from_gamma(0.3)
        steps = [
            lambda: StateVector(qubits(2), [1, 0, 0, 0]),
            lambda: ghz_state(3),
            lambda: DensityMatrix.raw(qubits(1), np.eye(2) / 2),
            lambda: vec_to_dm(psi),
            lambda: prov.to_dense(validate=False),
            lambda: ppt_check(prov, [0]),
            lambda: ppt_check(rho, [0]),
            lambda: mix_white_noise(rho, 0.5),
            lambda: maximally_mixed(qubits(2)),
            lambda: heisenberg_hamiltonian(Lattice.ring(3), params),
            lambda: SpinHamiltonian(Lattice.ring(3), params).spectrum(),
            lambda: thermal_state(SpinHamiltonian(Lattice.ring(3), params), 1.0),
        ]
        monkeypatch.setattr(tensor, "_DENSE_BYTES", 0)
        for step in steps:
            with pytest.raises(ResourceError, match="over the budget of 0 bytes"):
                step()

    @pytest.mark.parametrize("step, need", [
        # each trace holds its result and the one before: 2 (D / d)^2
        # entries, d the dimension of the first subsystem traced out,
        # the highest label
        (lambda rho: partial_trace(rho, [0, 2]), 2 * 16 * 6 ** 2),
        (lambda rho: partial_trace(rho, [1]), 2 * 16 * 4 ** 2),
        (lambda rho: partial_transpose(rho, [1]), 16 * 12 ** 2),
        (lambda rho: permute_systems(rho, [2, 0, 1]), 16 * 12 ** 2),
        (lambda rho: apply_local_unitaries(rho, [np.eye(2), np.eye(3), np.eye(2)]),
         64 * 12 ** 2),
    ])
    def test_transforms_count_their_bytes(self, monkeypatch, step, need):
        rho = maximally_mixed(SystemShape((2, 3, 2)))
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need - 1)
        with pytest.raises(ResourceError, match=f"needs {need} bytes, over the budget"):
            step(rho)
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need)
        step(rho)

    def test_flip_counts_its_bytes(self, monkeypatch):
        psi = ghz_state(3, 3)
        for state, need in ((psi, 16 * 27), (vec_to_dm(psi), 16 * 27 ** 2)):
            monkeypatch.setattr(tensor, "_DENSE_BYTES", need - 1)
            with pytest.raises(ResourceError, match=f"flip .* needs {need} bytes"):
                flip_all(state)
            monkeypatch.setattr(tensor, "_DENSE_BYTES", need)
            flip_all(state)

    def test_unnormalised_vector_rejected(self):
        with pytest.raises(DomainError):
            StateVector(SystemShape((2,)), [1.0, 1.0])

    @pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (1, 1)])
    @pytest.mark.parametrize("nan", [complex(np.nan, 0), complex(0, np.nan)])
    def test_nan_entry_rejected(self, i, j, nan):
        # eigvalsh reads one triangle only, and every comparison with NaN
        # is False, so each check must be written to fail on NaN
        mat = vec_to_dm(ghz_state(2)).mat.copy()
        mat[i, j] += nan
        with pytest.raises(DomainError):
            DensityMatrix(qubits(2), mat)
        with pytest.raises(DomainError):
            hermitian_spectrum(mat)

    @pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [1.0, 1j * np.nan]])
    def test_nan_amplitude_rejected(self, amplitudes):
        with pytest.raises(DomainError, match="norm"):
            StateVector(qubits(1), amplitudes)


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

    @pytest.mark.parametrize("unitaries,message", [
        # the right total dimension, split the wrong way
        ([np.eye(4), np.eye(1)], r"local unitary 0 has shape \(4, 4\), subsystem 0 needs"),
        ([np.eye(2), np.eye(2)[:, :1]], "local unitary 1 has shape"),
        # a trace-2 result if it went through
        ([np.ones((2, 2)), np.eye(2)], "local unitary 0 is not unitary within 1e-10"),
        ([np.eye(2), np.diag([1.0, 1.0 + 1e-9])], "local unitary 1 is not unitary"),
        ([np.eye(2), np.full((2, 2), np.nan)], "local unitary 1 is not unitary"),
    ])
    def test_local_unitaries_are_checked(self, unitaries, message):
        rho = maximally_mixed(qubits(2))
        with pytest.raises(DomainError, match=message):
            apply_local_unitaries(rho, unitaries)

    def test_local_unitaries_within_tolerance_pass(self):
        rho = maximally_mixed(SystemShape((2, 3)))
        phase = np.diag(np.exp(1j * np.array([0.1, 0.2, 0.3])))
        rotated = apply_local_unitaries(rho, [np.diag([1.0, 1.0 + 1e-12]), phase])
        assert np.max(np.abs(rotated.mat - rho.mat)) < 1e-11


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

    def test_file_size_checked_before_parsing(self, tmp_path, monkeypatch):
        path = tmp_path / "ghz.json"
        save_density_matrix(vec_to_dm(ghz_state(3)), path)
        need = tensor._LOAD_BYTES_PER_FILE_BYTE * path.stat().st_size
        parsed, parse = [], json.load
        monkeypatch.setattr(json, "load", lambda fh: parsed.append(1) or parse(fh))
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need - 1)
        with pytest.raises(ResourceError, match=f"file .* needs {need} bytes, over the budget"):
            load_density_matrix(path)
        assert not parsed
        monkeypatch.setattr(tensor, "_DENSE_BYTES", need)
        assert load_density_matrix(path).shape.dims == (2, 2, 2) and parsed

    def test_missing_key(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dims": [2], "re": [[1, 0], [0, 0]]}))
        with pytest.raises(DomainError):
            load_density_matrix(path)
