import time
from math import comb, sqrt

import numpy as np
import pytest

from multisep import (
    DensityMatrix,
    DomainError,
    StateSpec,
    StateVector,
    as_provider,
    bell_state,
    dicke_state,
    family_state,
    ghz_state,
    make_state,
    mix_white_noise,
    permute_systems,
    ppt_check,
    qubits,
    smolin_state,
    vec_to_dm,
    w_state,
)
from multisep.states import MixtureProvider, dicke_amplitudes, ghz_amplitudes


class TestReferenceStates:
    def test_dicke_4_2_display(self):
        psi = dicke_state(4, 2)
        expected = {(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
                    (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)}
        for mi in expected:
            assert psi.amplitude(mi) == pytest.approx(1 / sqrt(6))
        assert np.count_nonzero(np.abs(psi.amp) > 1e-12) == 6

    def test_ghz_amplitudes(self):
        psi = ghz_state(3)
        assert psi.amplitude((0, 0, 0)) == pytest.approx(1 / sqrt(2))
        assert psi.amplitude((1, 1, 1)) == pytest.approx(1 / sqrt(2))
        assert np.count_nonzero(np.abs(psi.amp) > 1e-12) == 2

    def test_qudit_ghz_count(self):
        psi = ghz_state(3, d=4)
        assert np.count_nonzero(np.abs(psi.amp) > 1e-12) == 4
        assert psi.amplitude((2, 2, 2)) == pytest.approx(0.5)

    def test_w_is_single_excitation_dicke(self):
        assert np.allclose(w_state(4).amp, dicke_state(4, 1).amp)

    def test_dicke_excitation_count(self):
        for n, m in ((3, 1), (4, 2), (5, 3)):
            psi = dicke_state(n, m)
            assert np.count_nonzero(np.abs(psi.amp) > 1e-12) == comb(n, m)

    def test_qudit_dicke_levels(self):
        # generalised Dicke superposes excitation levels j = 0..d-2
        psi = dicke_state(2, 1, d=3)
        expected = 1 / sqrt(comb(2, 1) * 2)
        for mi in ((0, 1), (1, 0), (1, 2), (2, 1)):
            assert psi.amplitude(mi) == pytest.approx(expected)

    def test_bell_labels(self):
        assert bell_state("phi+").amplitude((1, 1)) == pytest.approx(1 / sqrt(2))
        assert bell_state("phi-").amplitude((1, 1)) == pytest.approx(-1 / sqrt(2))
        assert bell_state("psi+").amplitude((0, 1)) == pytest.approx(1 / sqrt(2))
        assert bell_state("psi-").amplitude((1, 0)) == pytest.approx(-1 / sqrt(2))

    def test_make_state_dispatch(self):
        assert isinstance(make_state(StateSpec("smolin")), DensityMatrix)
        psi = make_state(StateSpec("dicke", n=4, m=2))
        assert isinstance(psi, StateVector)
        with pytest.raises(DomainError):
            StateSpec("unknown")
        with pytest.raises(DomainError):
            make_state(StateSpec("dicke", n=3, m=3))

    def test_constructed_states_are_valid(self):
        # DensityMatrix invariants hold for every family member
        for rho in (
            vec_to_dm(ghz_state(3)),
            vec_to_dm(dicke_state(4, 2)),
            smolin_state(),
            family_state("ghz-w", n=3, alpha=0.4, beta=0.3),
            family_state("gmd", n=3, d=3, alpha=0.2, beta=0.1),
        ):
            DensityMatrix(rho.shape, rho.mat)  # re-validate explicitly


class TestWhiteNoise:
    def test_endpoints(self):
        rho = vec_to_dm(ghz_state(3))
        assert np.allclose(mix_white_noise(rho, 1.0).mat, rho.mat)
        assert np.allclose(mix_white_noise(rho, 0.0).mat, np.eye(8) / 8)

    def test_half_mix_element(self):
        mixed = mix_white_noise(vec_to_dm(ghz_state(3)), 0.5)
        assert mixed.element((0, 0, 0), (1, 1, 1)) == pytest.approx(0.25)

    def test_range_check(self):
        rho = vec_to_dm(ghz_state(3))
        with pytest.raises(DomainError):
            mix_white_noise(rho, 1.2)
        with pytest.raises(DomainError):
            mix_white_noise(rho, -0.1)


class TestFamilies:
    def test_ghz_iso_pure_element(self):
        prov = family_state("ghz-iso", n=4, d=4, alpha=1.0, representation="provider")
        assert prov.element((0, 0, 0, 0), (3, 3, 3, 3)) == pytest.approx(0.25)

    def test_ghz_iso_closed_form(self):
        alpha = 0.37
        prov = family_state("ghz-iso", n=3, d=3, alpha=alpha, representation="provider")
        assert prov.element((1, 1, 1), (2, 2, 2)) == pytest.approx(alpha / 3)
        assert prov.element((1, 1, 1), (1, 1, 1)) == pytest.approx(
            alpha / 3 + (1 - alpha) / 27)
        assert prov.element((0, 1, 1), (0, 1, 1)) == pytest.approx((1 - alpha) / 27)

    def test_ghz_w_noise_only(self):
        rho = family_state("ghz-w", n=3, alpha=0.0, beta=0.0)
        assert np.allclose(rho.mat, np.eye(8) / 8)

    def test_provider_matches_dense(self):
        for fam, kwargs in (
            ("ghz-iso", dict(n=3, d=2, alpha=0.3)),
            ("dicke-iso", dict(n=4, m=2, p=0.6)),
            ("dicke-iso", dict(n=8, m=3, p=0.45)),
            ("gmd", dict(n=3, d=3, alpha=0.25, beta=0.35)),
        ):
            prov = family_state(fam, representation="provider", **kwargs)
            dense = family_state(fam, representation="dense", **kwargs)
            dev = max(
                abs(prov.element(a, b) - dense.element(a, b))
                for a in prov.shape.all_indices()
                for b in prov.shape.all_indices()
            )
            assert dev < 1e-12

    def test_simplex_validation(self):
        with pytest.raises(DomainError):
            family_state("ghz-w", n=3, alpha=0.7, beta=0.5)
        with pytest.raises(DomainError):
            family_state("ghz-iso", n=3, d=2, alpha=-0.1)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            family_state("nope", n=3, alpha=0.1)


class TestProviders:
    def test_hermitian_symmetry(self, rng):
        prov = family_state("gmd", n=3, d=3, alpha=0.3, beta=0.2,
                            representation="provider")
        for _ in range(50):
            a = tuple(rng.integers(0, 3, 3))
            b = tuple(rng.integers(0, 3, 3))
            assert prov.element(a, b) == pytest.approx(np.conj(prov.element(b, a)))

    def test_diagonal_sums_to_one(self):
        prov = family_state("dicke-iso", n=6, m=2, p=0.4, representation="provider")
        total = sum(prov.element(mi, mi).real for mi in prov.shape.all_indices())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dense_provider_wraps(self):
        rho = vec_to_dm(ghz_state(3))
        prov = as_provider(rho)
        assert prov.element((0, 0, 0), (1, 1, 1)) == pytest.approx(0.5)

    def test_large_n_query_speed(self):
        prov = family_state("dicke-iso", n=20, m=1, p=0.5, representation="provider")
        bra = (1,) + (0,) * 19
        ket = (0,) * 19 + (1,)
        start = time.perf_counter()
        queries = 1000
        for _ in range(queries):
            prov.element(bra, ket)
        per_query = (time.perf_counter() - start) / queries
        assert per_query < 1e-3
        assert prov.element(bra, ket) == pytest.approx(0.5 / 20)

    def test_to_dense_cap_checked_before_allocating(self):
        # 4^8 = 65536 exceeds the default dense cap; nothing is allocated
        prov = family_state("ghz-iso", n=8, d=4, alpha=0.5, representation="provider")
        with pytest.raises(DomainError, match="exceeds the cap"):
            prov.to_dense()

    def test_mixture_weights_validated(self):
        with pytest.raises(DomainError):
            MixtureProvider(qubits(2), [(0.5, ghz_amplitudes(2))], noise_weight=0.2)


class TestSmolin:
    def test_swap_invariance(self):
        rho = smolin_state()
        for order in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            assert np.max(np.abs(permute_systems(rho, order).mat - rho.mat)) < 1e-12

    def test_rank_four(self):
        evals = np.linalg.eigvalsh(smolin_state().mat)
        assert np.sum(evals > 1e-12) == 4

    def test_npt_under_every_single_site_cut(self):
        rho = smolin_state()
        for site in range(4):
            assert ppt_check(rho, [site]).violated

    def test_ppt_under_two_site_cuts(self):
        rho = smolin_state()
        for pair in ((0, 1), (0, 2), (0, 3)):
            assert not ppt_check(rho, list(pair)).violated

    def test_bell_pair_decomposition(self):
        # equal mixture of the four two-site Bell pairs reproduces the state
        mat = np.zeros((16, 16), dtype=complex)
        for label in ("phi+", "phi-", "psi+", "psi-"):
            pair = vec_to_dm(bell_state(label)).mat
            mat += 0.25 * np.kron(pair, pair)
        assert np.max(np.abs(mat - smolin_state().mat)) < 1e-12


class TestDickeAmplitudeMap:
    def test_map_matches_vector(self):
        amps = dicke_amplitudes(5, 2)
        psi = dicke_state(5, 2)
        for mi, val in amps.items():
            assert psi.amplitude(mi) == pytest.approx(val)
        assert len(amps) == comb(5, 2)

    def test_invalid_m(self):
        with pytest.raises(DomainError):
            dicke_amplitudes(4, 0)
        with pytest.raises(DomainError):
            dicke_amplitudes(4, 4)
