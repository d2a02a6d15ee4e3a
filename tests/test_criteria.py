from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from multisep import (
    DomainError,
    ProbePair,
    ResourceError,
    best_computational_probe,
    dicke_gme_value,
    dicke_state,
    double_class_value,
    family_state,
    fidelity_witness_value,
    ghz_state,
    gme_value,
    bipartite_value,
    ksep_value,
    maximally_mixed,
    mix_white_noise,
    mlinear_value,
    ntuple_class_value,
    ppt_check,
    q0_value,
    qm_value,
    qubits,
    rank_m_determinant,
    stirling2,
    vec_to_dm,
    w_state,
)
from multisep.sampling import random_density_matrix, random_product_pure
from multisep.states import FlippedProvider, MixtureProvider, bell_state, dicke_amplitudes
from multisep import tensor
from multisep.tensor import StateVector


def ghz_iso_threshold(n, d, k):
    """Exact detection threshold of the k-separability criterion on the
    isotropic GHZ family: off-diagonal alpha/d crosses S(n,k) equal
    diagonal root terms (1-alpha)/d^n."""
    s = stirling2(n, k)
    return Fraction(s * d, d ** n + s * d)


def bisect_family(detect, lo, hi, tol=1e-9):
    det_lo = detect(lo)
    assert detect(hi) != det_lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if detect(mid) == det_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPpt:
    def test_bell_detected(self):
        report = ppt_check(vec_to_dm(bell_state("phi+")), [0])
        assert report.violated
        assert report.value == pytest.approx(0.5)

    def test_product_not_detected(self, rng):
        for _ in range(5):
            a = random_density_matrix(qubits(1), rng)
            b = random_density_matrix(qubits(1), rng)
            from multisep import DensityMatrix
            rho = DensityMatrix(qubits(2), np.kron(a.mat, b.mat))
            assert not ppt_check(rho, [0]).violated

    def test_iso_threshold(self):
        thr = float(ghz_iso_threshold(4, 4, 4))   # 1/65, equals the PPT boundary
        assert thr == pytest.approx(1 / 65)
        build = lambda a: family_state("ghz-iso", n=4, d=4, alpha=a)
        assert not ppt_check(build(thr - 1e-6), [0]).violated
        assert ppt_check(build(thr + 1e-6), [0]).violated

    def test_block_validation(self):
        rho = vec_to_dm(bell_state("phi+"))
        with pytest.raises(DomainError):
            ppt_check(rho, [0, 1])

    @pytest.mark.parametrize("block, message", [
        ([], "non-empty"),
        ([3], "out of range"),
        ([-1], "out of range"),
        ([0, 0], "distinct"),
        ([1, 0, 1], "distinct"),
        ([0, 1, 2], "full transpose"),
    ])
    def test_bad_block_same_error_for_both_inputs(self, block, message):
        prov = family_state("ghz-iso", n=3, alpha=0.5, representation="provider")
        errors = []
        for state in (prov, prov.to_dense()):
            with pytest.raises(DomainError, match=message) as info:
                ppt_check(state, block)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_other_inputs_rejected(self):
        prov = family_state("ghz-iso", n=3, alpha=0.5, representation="provider")
        with pytest.raises(DomainError, match="MixtureProvider"):
            ppt_check(FlippedProvider(prov), [0])


def _proper_blocks(n):
    return [list(b) for r in range(1, n) for b in combinations(range(n), r)]


class TestPptOnSupport:
    """ppt_check on a MixtureProvider against the dense spectrum path."""

    @pytest.mark.parametrize("family, kwargs", [
        ("ghz-iso", dict(n=3, alpha=0.3)),
        ("ghz-iso", dict(n=4, d=4, alpha=0.02)),
        ("ghz-iso", dict(n=5, d=3, alpha=0.7)),
        ("dicke-iso", dict(n=6, m=3, p=0.4)),
        ("dicke-iso", dict(n=5, m=2, p=0.9)),
        ("dicke-iso", dict(n=4, m=1, d=3, p=0.6)),
        ("dicke-iso", dict(n=5, m=2, d=3, p=0.3)),
        ("dicke-iso", dict(n=4, m=2, d=4, p=0.5)),
        ("ghz-w", dict(n=5, alpha=0.2, beta=0.5)),
        ("ghz-w", dict(n=6, alpha=0.45, beta=0.1)),
        ("gmd", dict(n=4, d=3, alpha=0.3, beta=0.4)),
        ("gmd", dict(n=3, d=4, alpha=0.1, beta=0.6)),
        # no noise
        ("dicke-iso", dict(n=4, m=2, p=1.0)),
        ("gmd", dict(n=3, d=3, alpha=0.6, beta=0.4)),
        # a zero-weight term
        ("ghz-w", dict(n=4, alpha=0.5, beta=0.0)),
        ("ghz-w", dict(n=4, alpha=0.0, beta=0.7)),
    ])
    def test_equals_dense_on_every_proper_block(self, family, kwargs):
        prov = family_state(family, representation="provider", **kwargs)
        rho = prov.to_dense()
        assert rho.shape.total <= 256
        for block in _proper_blocks(prov.shape.n):
            assert ppt_check(prov, block).value == pytest.approx(
                ppt_check(rho, block).value, rel=0, abs=1e-14)

    def test_pure_noise(self):
        # alpha = 0 leaves no support: every eigenvalue is 1/D
        for n, d in ((3, 2), (4, 3), (20, 2)):
            prov = family_state("ghz-iso", n=n, d=d, alpha=0.0, representation="provider")
            assert ppt_check(prov, [0]).value == pytest.approx(-1 / d ** n, rel=1e-15)

    def test_support_covering_every_index(self):
        # Bell-diagonal weights q: the partial transpose has eigenvalues
        # 1/2 - q, all positive, on S = all four indices, so no zero joins them
        weights = {"phi+": 0.4, "phi-": 0.3, "psi+": 0.2, "psi-": 0.1}
        terms = []
        for label, w in weights.items():
            psi = bell_state(label)
            terms.append((w, {mi: psi.amplitude(mi) for mi in
                              ((0, 0), (0, 1), (1, 0), (1, 1)) if psi.amplitude(mi)}))
        prov = MixtureProvider(qubits(2), terms)
        support, _ = prov.low_rank_partial_transpose([0])
        assert len(support) == 4
        for block in ([0], [1]):
            value = ppt_check(prov, block).value
            assert value == pytest.approx(-0.1, abs=1e-15)
            assert value == pytest.approx(ppt_check(prov.to_dense(), block).value,
                                          rel=0, abs=1e-14)

    @pytest.mark.parametrize("n, d", [(20, 2), (8, 4)])
    def test_closed_form_beyond_the_dense_cap(self, n, d):
        for alpha in (0.0, 1 / (d ** (n - 1) + 1), 0.37, 1.0):
            prov = family_state("ghz-iso", n=n, d=d, alpha=alpha, representation="provider")
            for block in ([0], list(range(n // 2)), [n - 1]):
                assert ppt_check(prov, block).value == pytest.approx(
                    alpha / d - (1 - alpha) / d ** n, rel=0, abs=1e-12)

    def test_cap_bounds_the_support_size(self, monkeypatch):
        # C(16, 8) = 12870 support indices; their 12870 off-block patterns
        # of sites 1..15 times the 2 labels of site 0 give |S| = 25740
        prov = family_state("dicke-iso", n=16, m=8, p=0.5, representation="provider")
        with pytest.raises(ResourceError, match="25740 indices"):
            ppt_check(prov, [0])
        # 20 off-block times 2 block patterns; the step counts 48 |S|^2 bytes
        prov = family_state("dicke-iso", n=6, m=3, p=0.5, representation="provider")
        want = ppt_check(prov.to_dense(), [0]).value
        monkeypatch.setattr(tensor, "_DENSE_BYTES", 48 * 40 ** 2 - 1)
        with pytest.raises(ResourceError,
                           match="\\|S\\| = 40 indices .* needs 76800 bytes, over the budget"):
            ppt_check(prov, [0])
        monkeypatch.setattr(tensor, "_DENSE_BYTES", 48 * 40 ** 2)
        assert ppt_check(prov, [0]).value == pytest.approx(want, rel=0, abs=1e-14)

    @pytest.mark.parametrize("block, size", [([0], 504), ([0, 1, 2], 896), ([0, 3, 5, 7], 992)])
    def test_support_is_the_product_of_digit_patterns(self, block, size):
        # dicke-iso n=10, m=5: s = 252 support indices, and |S| = size
        prov = family_state("dicke-iso", n=10, m=5, p=0.5, representation="provider")
        on = {tuple(mi[i] for i in block) for mi in dicke_amplitudes(10, 5)}
        off = {tuple(x for i, x in enumerate(mi) if i not in block)
               for mi in dicke_amplitudes(10, 5)}
        support, _ = prov.low_rank_partial_transpose(block)
        assert len(support) == len(on) * len(off) == size
        assert ppt_check(prov, block).value == pytest.approx(
            ppt_check(prov.to_dense(), block).value, rel=0, abs=1e-12)


class TestBipartite:
    def test_bell_value(self):
        rho = vec_to_dm(bell_state("phi+"))
        assert bipartite_value(rho, ProbePair((0, 0), (1, 1))).value == \
            pytest.approx(0.5)

    def test_maximally_mixed(self):
        rho = maximally_mixed(qubits(2))
        assert bipartite_value(rho, ProbePair((0, 0), (1, 1))).value == \
            pytest.approx(-0.25)

    def test_product_never_positive(self, rng):
        from multisep import Partition
        part = Partition([(0,), (1,)])
        for _ in range(20):
            vec = random_product_pure(qubits(2), part, rng)
            rho = vec_to_dm(StateVector(qubits(2), vec))
            assert bipartite_value(rho, ProbePair((0, 0), (1, 1))).value <= 1e-9

    def test_needs_two_parties(self):
        with pytest.raises(DomainError):
            bipartite_value(vec_to_dm(ghz_state(3)), ProbePair((0, 0), (1, 1)))


class TestProbeValidation:
    def test_per_site_distinctness(self):
        with pytest.raises(DomainError):
            ProbePair((0, 0, 0), (1, 0, 1))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            ProbePair((0, 0), (1, 1, 1))


class TestGme:
    def test_pure_ghz(self):
        rho = vec_to_dm(ghz_state(3))
        assert gme_value(rho, ProbePair((0, 0, 0), (1, 1, 1))).value == \
            pytest.approx(0.5)

    def test_white_noise_threshold_three_sevenths(self):
        probe = ProbePair((0, 0, 0), (1, 1, 1))
        ghz = vec_to_dm(ghz_state(3))
        assert not gme_value(mix_white_noise(ghz, 3 / 7 - 1e-7), probe).violated
        assert gme_value(mix_white_noise(ghz, 3 / 7 + 1e-7), probe).violated

    def test_iso44_threshold(self):
        thr = float(ghz_iso_threshold(4, 4, 2))   # 7/71
        assert thr == pytest.approx(7 / 71)
        probe = ProbePair((0, 0, 0, 0), (3, 3, 3, 3))
        build = lambda a: family_state("ghz-iso", n=4, d=4, alpha=a,
                                       representation="provider")
        assert not gme_value(build(thr - 1e-7), probe).violated
        assert gme_value(build(thr + 1e-7), probe).violated

    def test_reduces_to_bipartite(self, rng):
        rho = random_density_matrix(qubits(2), rng)
        probe = ProbePair((0, 1), (1, 0))
        assert gme_value(rho, probe).value == pytest.approx(
            bipartite_value(rho, probe).value, abs=1e-14)


class TestKsep:
    def test_iso44_thresholds(self):
        probe = ProbePair((0, 0, 0, 0), (3, 3, 3, 3))
        build = lambda a: family_state("ghz-iso", n=4, d=4, alpha=a,
                                       representation="provider")
        for k, expected in ((3, Fraction(3, 35)), (4, Fraction(1, 65))):
            assert ghz_iso_threshold(4, 4, k) == expected
            thr = float(expected)
            assert not ksep_value(build(thr - 1e-7), k, probe).violated
            assert ksep_value(build(thr + 1e-7), k, probe).violated

    def test_k2_equals_gme(self, rng):
        rho = random_density_matrix(qubits(3), rng)
        probe = ProbePair((0, 0, 0), (1, 1, 1))
        assert ksep_value(rho, 2, probe).value == pytest.approx(
            gme_value(rho, probe).value, abs=1e-13)

    def test_doubled_first_term_variant(self):
        rho = vec_to_dm(ghz_state(3))
        probe = ProbePair((0, 0, 0), (1, 1, 1))
        single = ksep_value(rho, 2, probe).value
        doubled = ksep_value(rho, 2, probe, doubled_first_term=True).value
        assert doubled == pytest.approx(2 * 0.5 - (0.5 - single), abs=1e-12)

    def test_k_range(self):
        rho = vec_to_dm(ghz_state(3))
        with pytest.raises(DomainError):
            ksep_value(rho, 4, ProbePair((0, 0, 0), (1, 1, 1)))

    def test_partition_cap(self):
        prov = family_state("ghz-iso", n=14, d=2, alpha=0.5, representation="provider")
        probe = ProbePair((0,) * 14, (1,) * 14)
        with pytest.raises(ResourceError):
            ksep_value(prov, 4, probe, cap=10 ** 4)

    def test_bracketing_thresholds_n4(self):
        # S(4,2)=7 > S(4,3)=6 > S(4,4)=1: k=2 sits on top, k=n at the bottom
        probe = ProbePair((0,) * 4, (1,) * 4)
        build = lambda a: family_state("ghz-iso", n=4, d=2, alpha=a,
                                       representation="provider")
        found = {}
        for k in (2, 3, 4):
            exact = float(ghz_iso_threshold(4, 2, k))
            found[k] = bisect_family(
                lambda a, kk=k: ksep_value(build(a), kk, probe).violated, 0.0, 1.0)
            assert found[k] == pytest.approx(exact, abs=1e-6)
        assert found[4] < found[3] < found[2]

    def test_unsorted_ordering_n5(self):
        # S(5,3)=25 exceeds S(5,2)=15: the k=3 threshold overtakes k=2,
        # reproducing the reported unsorted middle-k behaviour for n >= 5;
        # k=n stays the lowest threshold.
        thresholds = {k: ghz_iso_threshold(5, 2, k) for k in (2, 3, 4, 5)}
        assert thresholds[3] > thresholds[2]
        assert min(thresholds.values()) == thresholds[5]
        probe = ProbePair((0,) * 5, (1,) * 5)
        build = lambda a: family_state("ghz-iso", n=5, d=2, alpha=a,
                                       representation="provider")
        for k in (2, 3, 5):
            got = bisect_family(
                lambda a, kk=k: ksep_value(build(a), kk, probe).violated, 0.0, 1.0)
            assert got == pytest.approx(float(thresholds[k]), abs=1e-6)


class TestDicke:
    def test_pure_values(self):
        for n, m in ((3, 1), (4, 2)):
            rho = vec_to_dm(dicke_state(n, m))
            assert dicke_gme_value(rho, m).value == pytest.approx(m, abs=1e-12)

    def test_w_state(self):
        assert dicke_gme_value(vec_to_dm(w_state(3)), 1).value == pytest.approx(1.0)

    def test_maximally_mixed_negative(self):
        report = dicke_gme_value(maximally_mixed(qubits(4)), 1)
        assert report.value == pytest.approx(-1.25)
        assert not report.violated

    def test_flip_handles_large_m(self):
        rho = vec_to_dm(dicke_state(3, 2))
        assert dicke_gme_value(rho, 2).value == pytest.approx(1.0)

    def test_qubits_only(self):
        with pytest.raises(DomainError):
            dicke_gme_value(vec_to_dm(ghz_state(3, d=3)), 1)

    def test_noise_threshold_shrinks_with_n(self):
        # fig-style monotonicity: at m=1 the white-noise detection
        # threshold p* decreases as n grows
        thresholds = []
        for n in (4, 6, 8):
            build = lambda p, nn=n: family_state(
                "dicke-iso", n=nn, m=1, p=p, representation="provider")
            thresholds.append(bisect_family(
                lambda p: dicke_gme_value(build(p), 1).violated, 0.0, 1.0))
        assert thresholds[0] > thresholds[1] > thresholds[2]


class TestQ0:
    def test_pure_ghz44(self):
        prov = family_state("ghz-iso", n=4, d=4, alpha=1.0, representation="provider")
        report = q0_value(prov, f=4)
        assert report.value == pytest.approx(3.0)
        assert report.params["detected_f"] == 4

    def test_qubit_reduces_to_twice_gme(self, rng):
        rho = random_density_matrix(qubits(3), rng)
        q0 = q0_value(rho, f=2).value
        gme = gme_value(rho, ProbePair((0, 0, 0), (1, 1, 1))).value
        gme_rev = gme_value(rho, ProbePair((1, 1, 1), (0, 0, 0))).value
        assert q0 == pytest.approx(gme + gme_rev, abs=1e-13)

    def test_f_range(self):
        prov = family_state("ghz-iso", n=3, d=2, alpha=0.5, representation="provider")
        with pytest.raises(DomainError):
            q0_value(prov, f=3)

    def test_detection_levels(self):
        build = lambda a: family_state("ghz-iso", n=4, d=4, alpha=a,
                                       representation="provider")
        assert q0_value(build(0.2), f=2).violated
        assert not q0_value(build(0.2), f=3).violated
        assert q0_value(build(0.5), f=3).violated
        assert q0_value(build(0.5), f=3).params["detected_f"] == 3


class TestQm:
    def test_qubit_equals_normalised_dicke(self, rng):
        for n, m in ((4, 1), (4, 2), (5, 2)):
            rho = random_density_matrix(qubits(n), rng)
            assert qm_value(rho, m).value == pytest.approx(
                dicke_gme_value(rho, m).value / m, abs=1e-12)

    def test_pure_dicke_unit_value(self):
        for n, m in ((4, 2), (6, 3)):
            assert qm_value(vec_to_dm(dicke_state(n, m)), m).value == \
                pytest.approx(1.0, abs=1e-12)

    def test_qudit_dicke_detected(self):
        rho = vec_to_dm(dicke_state(3, 1, d=3))
        report = qm_value(rho, 1, f=3)
        assert report.value > 1.0   # genuinely 3-dimensional detection

    def test_m_range(self):
        with pytest.raises(DomainError):
            qm_value(maximally_mixed(qubits(3)), 3)


class TestClassInequalities:
    def test_ghz4_excluded_from_w_class(self):
        report = ntuple_class_value(vec_to_dm(ghz_state(4)))
        assert report.value == pytest.approx(0.5)
        assert report.violated

    def test_w4_inside_w_class(self):
        assert ntuple_class_value(vec_to_dm(w_state(4))).value <= 1e-12

    def test_ghz4_inside_double_class(self):
        assert double_class_value(vec_to_dm(ghz_state(4))).value <= 1e-12

    def test_w4_excluded_from_double_class(self):
        assert double_class_value(vec_to_dm(w_state(4))).violated

    def test_alpha_by_size(self):
        assert ntuple_class_value(maximally_mixed(qubits(3))).params["alpha"] == 1.5
        assert ntuple_class_value(maximally_mixed(qubits(4))).params["alpha"] == 1.0
        assert ntuple_class_value(maximally_mixed(qubits(5))).params["alpha"] == 0.5

    def test_needs_three_qubits(self):
        with pytest.raises(DomainError):
            ntuple_class_value(maximally_mixed(qubits(2)))


class TestFidelityWitness:
    def test_ghz3_constants(self):
        assert fidelity_witness_value(vec_to_dm(ghz_state(3)), "ghz3").value == \
            pytest.approx(0.25, abs=1e-12)
        assert fidelity_witness_value(maximally_mixed(qubits(3)), "ghz3").value == \
            pytest.approx(-0.625, abs=1e-12)

    def test_w3_constant(self):
        assert fidelity_witness_value(vec_to_dm(w_state(3)), "w3").value == \
            pytest.approx(1 / 3, abs=1e-12)

    def test_custom_witness(self):
        rho = vec_to_dm(ghz_state(4))
        report = fidelity_witness_value(rho, alpha=0.5, psi=ghz_state(4))
        assert report.value == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            fidelity_witness_value(maximally_mixed(qubits(4)), "ghz3")


class TestMlinear:
    def test_m2_matches_bipartite(self, rng):
        for _ in range(10):
            rho = random_density_matrix(qubits(2), rng)
            probes = [(0, 0), (1, 1)]
            assert mlinear_value(rho, probes).value == pytest.approx(
                bipartite_value(rho, ProbePair((0, 0), (1, 1))).value, abs=1e-12)

    def test_bell_m2(self):
        rho = vec_to_dm(bell_state("phi+"))
        assert mlinear_value(rho, [(0, 0), (1, 1)]).value == pytest.approx(0.5)

    def test_m3_weaker_than_m2(self):
        rho = vec_to_dm(bell_state("phi+"))
        v3 = mlinear_value(rho, [(0, 0), (1, 1), (0, 1)]).value
        assert v3 <= 0.5 + 1e-12

    def test_separable_never_positive(self, rng):
        from multisep import Partition
        part = Partition([(0,), (1,)])
        for m_probes in ([(0, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]):
            for _ in range(10):
                vec = random_product_pure(qubits(2), part, rng)
                rho = vec_to_dm(StateVector(qubits(2), vec))
                assert mlinear_value(rho, m_probes).value <= 1e-9

    def test_negative_radicand_flagged(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(qubits(2), rng, rank=2)
        report = mlinear_value(rho, [(0, 0), (1, 1), (0, 1)])
        assert report.params["negative_radicand"]
        assert report.value <= 0

    def test_needs_bipartite(self):
        with pytest.raises(DomainError):
            mlinear_value(vec_to_dm(ghz_state(3)), [(0, 0, 0), (1, 1, 1)])


class TestRankMDeterminant:
    def test_bell_violation(self):
        rho = vec_to_dm(bell_state("phi+"))
        report = rank_m_determinant(rho, [(0, 1), (1, 0)])
        assert report.value == pytest.approx(0.25)
        assert report.violated

    def test_bell_other_rows(self):
        rho = vec_to_dm(bell_state("phi+"))
        assert rank_m_determinant(rho, [(0, 0), (1, 1)]).value == pytest.approx(-0.25)

    def test_maximally_mixed_non_negative_det(self):
        rho = maximally_mixed(qubits(2))
        assert rank_m_determinant(rho, [(0, 1), (1, 0)]).value <= 1e-12

    def test_rank_one_product_gives_zero(self):
        # m exceeds the state's rank: the determinant degenerates to zero
        rho = vec_to_dm(StateVector(qubits(2), [1, 0, 0, 0]))
        assert rank_m_determinant(rho, [(0, 1), (1, 0)]).value == pytest.approx(0.0)

    def test_repeated_indices_degenerate(self):
        rho = vec_to_dm(bell_state("phi+"))
        report = rank_m_determinant(rho, [(0, 1), (0, 0)])
        assert report.value == 0.0
        assert report.params["degenerate"]

    def test_separable_gram_positive(self, rng):
        from multisep import Partition
        part = Partition([(0,), (1,)])
        for _ in range(20):
            vec = random_product_pure(qubits(2), part, rng)
            rho = vec_to_dm(StateVector(qubits(2), vec))
            assert rank_m_determinant(rho, [(0, 1), (1, 0)]).value <= 1e-9


class TestProviderEquivalence:
    # provider-capable criteria agree with dense evaluation entrywise
    def test_all_criteria(self):
        cases = [
            ("ghz-iso", dict(n=3, d=2, alpha=0.4)),
            ("ghz-iso", dict(n=4, d=3, alpha=0.2)),
            ("dicke-iso", dict(n=5, m=2, p=0.55)),
            ("dicke-iso", dict(n=8, m=4, p=0.7)),
        ]
        for fam, kwargs in cases:
            prov = family_state(fam, representation="provider", **kwargs)
            dense = family_state(fam, representation="dense", **kwargs)
            n, d = prov.shape.n, prov.shape.dims[0]
            probe = ProbePair((0,) * n, (d - 1,) * n)
            evaluators = [
                lambda s: gme_value(s, probe).value,
                lambda s: ksep_value(s, min(3, n), probe).value,
                lambda s: q0_value(s, f=2).value,
            ]
            if d == 2:
                evaluators += [
                    lambda s: dicke_gme_value(s, 1).value,
                    lambda s: qm_value(s, 1).value,
                    lambda s: double_class_value(s).value,
                    lambda s: ntuple_class_value(s).value,
                ]
            for ev in evaluators:
                assert ev(prov) == pytest.approx(ev(dense), abs=1e-12)


class TestBestProbe:
    def test_ghz_probe(self):
        probe = best_computational_probe(vec_to_dm(ghz_state(3)))
        assert abs(vec_to_dm(ghz_state(3)).element(probe.a, probe.b)) == \
            pytest.approx(0.5)
        assert probe.a == tuple(1 - x for x in probe.b)

    def test_report_serialisation(self):
        report = gme_value(vec_to_dm(ghz_state(3)), ProbePair((0, 0, 0), (1, 1, 1)))
        data = report.to_dict()
        assert data["name"] == "gme"
        assert data["violated"] is True
        assert data["probe"] == [[0, 0, 0], [1, 1, 1]]
