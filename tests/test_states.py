import time
from math import comb, sqrt

import numpy as np
import pytest

from multisep import (
    DensityMatrix,
    DomainError,
    ResourceError,
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
from multisep.states import (
    MixtureProvider,
    dicke_amplitudes,
    family_weights,
    ghz_amplitudes,
)
from multisep.tensor import SystemShape

NAN = float("nan")


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
        # 4^8 = 65536: 3 * 16 * 4^16 bytes, 192 GiB, are refused before
        # anything is allocated
        prov = family_state("ghz-iso", n=8, d=4, alpha=0.5, representation="provider")
        with pytest.raises(ResourceError, match=f"needs {3 * 16 * 4 ** 16} bytes, over the budget"):
            prov.to_dense()

    def test_mixture_weights_validated(self):
        with pytest.raises(DomainError):
            MixtureProvider(qubits(2), [(0.5, ghz_amplitudes(2))], noise_weight=0.2)

    @pytest.mark.parametrize("terms, noise, message", [
        ([(NAN, {(0, 0): 1.0})], 0.0, "mixture weight nan is negative or NaN"),
        ([(NAN, {(0, 0): 1.0}), (1.0, {(1, 1): 1.0})], 0.0, "mixture weight nan"),
        ([(1.0, {(0, 0): 1.0})], NAN, "noise weight nan is negative or NaN"),
        ([(0.5, {(0, 0): 1.0})], NAN, "noise weight nan"),
    ])
    def test_nan_weights_refused(self, terms, noise, message):
        with pytest.raises(DomainError, match=message):
            MixtureProvider(qubits(2), terms, noise_weight=noise)

    def test_to_dense_checks_bytes_before_allocating(self, monkeypatch):
        # 3^9 = 19683: 16 * 19683^2 bytes do not pass the byte budget,
        # validated or not
        prov = family_state("ghz-iso", n=9, d=3, alpha=0.5, representation="provider")
        zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **k: pytest.fail(
            f"allocated {shape}") if np.prod(shape) > 1 << 20 else zeros(shape, *a, **k))
        for validate in (True, False):
            with pytest.raises(ResourceError, match=r"needs \d+ bytes.*over the budget"):
                prov.to_dense(validate=validate)


def _reference_tables(shape, terms):
    """(support keys, amplitude table) as the provider built them one
    multi-index at a time, validating each with shape.validate_index."""
    live = [{shape.validate_index(k): complex(v) for k, v in amps.items()}
            for w, amps in terms if w != 0.0]
    place = [int(x) for x in shape.place_values()]
    flat = {mi: sum(x * p for x, p in zip(mi, place)) for amps in live for mi in amps}
    support = sorted(set(flat.values()))
    column = {x: i for i, x in enumerate(support)}
    keys = np.array(support + [shape.total], dtype=shape.index_dtype)
    table = np.zeros((len(live), len(keys)), dtype=complex)
    for t, amps in enumerate(live):
        for mi, a in amps.items():
            table[t, column[flat[mi]]] = a
    return keys, table


class TestSupportEncoding:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (2,) * 9, (5, 3)])
    def test_tables_match_the_per_index_reference(self, rng, dims):
        shape = SystemShape(dims)
        terms = []
        for weight in (0.3, 0.0, 0.2):
            flats = rng.choice(shape.total, size=min(6, shape.total), replace=False)
            amps = {tuple(np.int64(x) for x in shape.decode(f)): complex(*rng.normal(size=2))
                    for f in flats}
            terms.append((weight, amps))
        prov = MixtureProvider(shape, terms, noise_weight=0.5)
        keys, table = _reference_tables(shape, terms)
        assert np.array_equal(prov._keys, keys) and prov._keys.dtype == keys.dtype
        assert np.array_equal(prov._amps, table)
        for (w, amps), (w_ref, amps_ref) in zip(prov.terms, terms):
            assert w == w_ref
            assert amps == {shape.validate_index(k): v for k, v in amps_ref.items()}
            assert all(type(x) is int for mi in amps for x in mi)

    def test_huge_shape_keeps_exact_indices(self):
        # 3^45 > 2^63: flat indices are Python ints
        shape = SystemShape((3,) * 45)
        amps = {(2,) * 45: 0.6, (1,) * 44 + (0,): 0.8}
        prov = MixtureProvider(shape, [(1.0, amps)])
        keys, table = _reference_tables(shape, [(1.0, amps)])
        assert prov._keys.dtype == object and list(prov._keys) == list(keys)
        assert np.array_equal(prov._amps, table)

    @pytest.mark.parametrize("bad, message", [
        ((0, 2, 0), "label 2 out of range"),
        ((0, -1, 1), "label -1 out of range"),
        ((0, 1), "wrong length"),
        ((0, 1, 0, 1), "wrong length"),
    ])
    def test_bad_multi_index_named(self, bad, message):
        amps = {(0, 0, 0): 0.6, bad: 0.8}
        with pytest.raises(DomainError, match=message) as info:
            MixtureProvider(qubits(3), [(1.0, amps)])
        with pytest.raises(DomainError) as expected:
            qubits(3).validate_index(bad)
        assert str(info.value) == str(expected.value)


class TestReweighted:
    @pytest.mark.parametrize("family, kwargs, points", [
        ("ghz-iso", dict(n=3, d=3), [dict(alpha=a) for a in (0.2, 0.7, 1.0)]),
        ("dicke-iso", dict(n=5, m=2), [dict(p=p) for p in (0.1, 0.9)]),
        ("ghz-w", dict(n=4), [dict(alpha=0.1, beta=0.3), dict(alpha=0.6, beta=0.4)]),
        ("gmd", dict(n=3, d=3), [dict(alpha=0.5, beta=0.25), dict(alpha=0.05, beta=0.5)]),
    ])
    def test_equals_a_fresh_provider_and_shares_its_tables(self, family, kwargs, points):
        base = family_state(family, representation="provider", **kwargs, **points[0])
        prov = base
        for point in points:
            prov = prov.reweighted(*family_weights(family, n=kwargs["n"], **point))
            fresh = family_state(family, representation="provider", **kwargs, **point)
            assert prov._keys is base._keys and prov._amps is base._amps
            assert all(a is b for (_, a), (_, b) in zip(prov.terms, base.terms))
            assert prov.terms == fresh.terms and prov.noise_weight == fresh.noise_weight
            assert np.array_equal(prov._weighted, fresh._weighted)
            assert np.array_equal(prov._support_diag, fresh._support_diag)
            assert prov.plans is not None and base.plans is None
        flat = np.arange(prov.shape.total)
        assert np.array_equal(prov.elements(flat[:, None], flat[None, :]),
                              fresh.elements(flat[:, None], flat[None, :]))

    def test_a_change_of_nonzero_terms_rebuilds_the_tables(self):
        base = family_state("ghz-w", n=3, alpha=0.5, beta=0.0, representation="provider")
        first = base.reweighted([0.5, 0.0], 0.5)
        prov = first.reweighted([0.5, 0.25], 0.25)
        fresh = family_state("ghz-w", n=3, alpha=0.5, beta=0.25, representation="provider")
        assert prov._keys is not base._keys and np.array_equal(prov._keys, fresh._keys)
        assert np.array_equal(prov._amps, fresh._amps)
        assert prov.plans is first.plans
        noise = prov.reweighted([0.0, 0.0], 1.0)
        assert len(noise._keys) == 1 and noise.diagonal([0, 7]).tolist() == [0.125, 0.125]

    @pytest.mark.parametrize("weights, noise, message", [
        ([-0.1, 0.5], 0.6, "mixture weight -0.1 is negative"),
        ([0.5, 0.6], -0.1, "noise weight -0.1 is negative"),
        ([0.5, 0.1], 0.1, "sum to"),
        ([1.0], 0.0, "2 terms"),
        ([NAN, 0.5], 0.5, "mixture weight nan is negative or NaN"),
        ([0.5, NAN], 0.5, "mixture weight nan is negative or NaN"),
        ([0.5, 0.5], NAN, "noise weight nan is negative or NaN"),
    ])
    def test_weights_checked(self, weights, noise, message):
        prov = family_state("gmd", n=3, alpha=0.2, beta=0.3, representation="provider")
        with pytest.raises(DomainError, match=message):
            prov.reweighted(weights, noise)


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
