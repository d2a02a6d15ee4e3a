from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from multisep import (
    DomainError,
    ProbePair,
    QssSimulator,
    cv_detection_thresholds,
    element_from_expectations,
    error_bound,
    family_state,
    gme_value,
    maximally_mixed,
    pauli_expansion,
    pauli_expectations,
    pauli_string_matrix,
    qss_table,
    qss_verification_value,
    qubits,
    required_pauli_strings,
    stirling2,
)
from multisep.sampling import random_density_matrix

BASIS_LABELS = ("x+", "x-", "y+", "y-")

# the seven element expansions the verification inequality needs,
# written out term-for-term (coefficients in units of 1/8)
DISPLAYED_EXPANSIONS = {
    ((0, 0, 0), (1, 1, 1)): {
        (1, 1, 1): 1, (2, 2, 1): -1, (2, 1, 2): -1, (1, 2, 2): -1,
        (2, 2, 2): -1j, (1, 1, 2): 1j, (1, 2, 1): 1j, (2, 1, 1): 1j,
    },
    ((0, 0, 1), (0, 0, 1)): {
        (0, 0, 0): 1, (0, 0, 3): -1, (0, 3, 0): 1, (3, 0, 0): 1,
        (3, 3, 0): 1, (3, 0, 3): -1, (0, 3, 3): -1, (3, 3, 3): -1,
    },
    # note: the sign of [303] here is fixed by (-1)^(x1+x3) = -1 for the
    # diagonal element x = (1,1,0); see the projector expansion
    # |110><110| = (1/8)(s0-s3)(s0-s3)(s0+s3)
    ((1, 1, 0), (1, 1, 0)): {
        (0, 0, 0): 1, (0, 0, 3): 1, (0, 3, 0): -1, (3, 0, 0): -1,
        (3, 3, 0): 1, (3, 0, 3): -1, (0, 3, 3): -1, (3, 3, 3): 1,
    },
    ((0, 1, 0), (0, 1, 0)): {
        (0, 0, 0): 1, (0, 0, 3): 1, (0, 3, 0): -1, (3, 0, 0): 1,
        (3, 3, 0): -1, (3, 0, 3): 1, (0, 3, 3): -1, (3, 3, 3): -1,
    },
    ((1, 0, 1), (1, 0, 1)): {
        (0, 0, 0): 1, (0, 0, 3): -1, (0, 3, 0): 1, (3, 0, 0): -1,
        (3, 3, 0): -1, (3, 0, 3): 1, (0, 3, 3): -1, (3, 3, 3): 1,
    },
    ((1, 0, 0), (1, 0, 0)): {
        (0, 0, 0): 1, (0, 0, 3): 1, (0, 3, 0): 1, (3, 0, 0): -1,
        (3, 3, 0): -1, (3, 0, 3): -1, (0, 3, 3): 1, (3, 3, 3): -1,
    },
    ((0, 1, 1), (0, 1, 1)): {
        (0, 0, 0): 1, (0, 0, 3): -1, (0, 3, 0): -1, (3, 0, 0): 1,
        (3, 3, 0): -1, (3, 0, 3): -1, (0, 3, 3): 1, (3, 3, 3): 1,
    },
}


class TestPauliExpansion:
    def test_single_qubit_diagonal(self):
        assert pauli_expansion((0,), (0,)) == {(0,): 0.5, (3,): 0.5}

    def test_two_qubit_transition_display(self):
        exp = pauli_expansion((0, 0), (1, 1))
        assert exp == {(1, 1): 0.25, (2, 2): -0.25, (1, 2): 0.25j, (2, 1): 0.25j}

    def test_displayed_expansions_term_for_term(self):
        for (bra, ket), terms in DISPLAYED_EXPANSIONS.items():
            got = pauli_expansion(bra, ket)
            assert set(got) == set(terms)
            for s, coeff in terms.items():
                assert got[s] == pytest.approx(coeff / 8)

    def test_diagonal_uses_identity_and_z_only(self):
        for mi in ((0, 1, 0), (1, 1, 1), (0, 0, 0)):
            assert all(set(s) <= {0, 3} for s in pauli_expansion(mi, mi))

    def test_roundtrip_against_matrix_elements(self, rng):
        for _ in range(100):
            rho = random_density_matrix(qubits(3), rng)
            bra = tuple(rng.integers(0, 2, 3))
            ket = tuple(rng.integers(0, 2, 3))
            expansion = pauli_expansion(bra, ket)
            expectations = pauli_expectations(rho, expansion.keys())
            rebuilt = sum(c * expectations[s] for s, c in expansion.items())
            assert rebuilt == pytest.approx(rho.element(bra, ket), abs=1e-12)

    def test_qubits_only(self):
        with pytest.raises(DomainError):
            pauli_expansion((0, 2), (1, 0))

    def test_string_matrix_convention(self):
        # sigma_2 = i|0><1| - i|1><0|
        s2 = pauli_string_matrix((2,))
        assert s2[0, 1] == 1j and s2[1, 0] == -1j


class TestQssTable:
    def test_caption_anchor(self):
        assert qss_table()[("x-", "y+")] == "y+"

    def test_first_row_first_column(self):
        assert qss_table()[("x+", "x+")] == "x+"

    def test_symmetric_under_party_swap(self):
        table = qss_table()
        for b in BASIS_LABELS:
            for c in BASIS_LABELS:
                assert table[(b, c)] == table[(c, b)]

    def test_every_entry_against_stabilizer_parity(self):
        # independent oracle: GHZ stabilizers XXX = +1 and XYY = YXY =
        # YYX = -1 fix Alice's outcome sign from Bob's and Charlie's
        table = qss_table()
        sign = {"+": 1, "-": -1}
        for b in BASIS_LABELS:
            for c in BASIS_LABELS:
                alice = table[(b, c)]
                basis_parity = (b[0] == "y") + (c[0] == "y")
                expected_basis = "x" if basis_parity % 2 == 0 else "y"
                assert alice[0] == expected_basis
                n_y = basis_parity + (alice[0] == "y")
                stabilizer = 1 if n_y == 0 else -1
                assert sign[alice[1]] * sign[b[1]] * sign[c[1]] == stabilizer

    def test_alice_basis_rule(self):
        table = qss_table()
        for b in BASIS_LABELS:
            for c in BASIS_LABELS:
                same = b[0] == c[0]
                assert (table[(b, c)][0] == "x") == same


class TestQssSimulation:
    def test_sift_rate_half(self):
        summary = QssSimulator().run(100000, seed=11)
        assert summary["sift_rate"] == pytest.approx(0.5, abs=0.01)

    def test_sifted_rounds_reconstruct_perfectly(self):
        summary = QssSimulator().run(20000, seed=3)
        assert summary["match_rate"] == 1.0

    def test_round_fields(self):
        sim = QssSimulator()
        rnd = sim.round(np.random.default_rng(0))
        assert rnd.bases[0] in "xy" and rnd.outcomes[0][0] in "xy"
        assert rnd.alice_state in BASIS_LABELS
        assert rnd.sifted == (rnd.bases[0] == rnd.alice_state[0])

    def test_single_round_helper(self):
        from multisep import qss_round
        assert qss_round(seed=5) == qss_round(seed=5)
        assert qss_round(seed=5).alice_state in BASIS_LABELS

    def test_eavesdropper_breaks_reconstruction(self):
        summary = QssSimulator(eavesdrop=True).run(20000, seed=3)
        assert summary["match_rate"] == pytest.approx(0.5, abs=0.02)

    def test_deterministic_given_seed(self):
        a = QssSimulator().run(500, seed=9)
        b = QssSimulator().run(500, seed=9)
        assert a == b

    def test_run_rejects_negative_rounds(self):
        with pytest.raises(DomainError, match="rounds"):
            QssSimulator().run(-5)

    def test_sampled_expectations_converge(self):
        sim = QssSimulator()
        exact = sim.exact_expectations()
        noisy = sim.exact_expectations(shots=200000, seed=4)
        for s, v in exact.items():
            assert noisy[s] == pytest.approx(v, abs=0.02)


class TestQssVerification:
    def test_ghz_value(self):
        exp = QssSimulator().exact_expectations()
        report = qss_verification_value(exp)
        assert report.value == pytest.approx(0.5)
        assert report.violated

    def test_maximally_mixed(self):
        exp = pauli_expectations(maximally_mixed(qubits(3)), required_pauli_strings())
        assert qss_verification_value(exp).value == pytest.approx(-3 / 8)

    def test_eavesdropped_resource_not_verified(self):
        exp = QssSimulator(eavesdrop=True).exact_expectations()
        assert not qss_verification_value(exp).violated

    def test_equals_gme_value(self, rng):
        for _ in range(10):
            rho = random_density_matrix(qubits(3), rng)
            exp = pauli_expectations(rho, required_pauli_strings())
            direct = gme_value(rho, ProbePair((0, 0, 0), (1, 1, 1))).value
            assert qss_verification_value(exp).value == pytest.approx(
                direct, abs=1e-10)

    def test_sixteen_strings_half_protocol_reusable(self):
        strings = required_pauli_strings()
        assert len(strings) == 16
        reusable = [s for s in strings if set(s) <= {0, 3}]
        assert len(reusable) == 8

    def test_missing_expectation_reported(self):
        exp = QssSimulator().exact_expectations()
        missing = (3, 3, 3)
        del exp[missing]
        with pytest.raises(DomainError) as err:
            qss_verification_value(exp)
        assert str(list(missing)) in str(err.value) or "(3, 3, 3)" in str(err.value)

    def test_element_reconstruction(self):
        rho = family_state("ghz-w", n=3, alpha=0.6, beta=0.1)
        exp = pauli_expectations(rho, required_pauli_strings())
        got = element_from_expectations(exp, (0, 0, 0), (1, 1, 1))
        assert got == pytest.approx(rho.element((0, 0, 0), (1, 1, 1)), abs=1e-12)


class TestErrorBudget:
    def test_no_diagonal_error(self):
        assert error_bound(0.05, 0.0, 5, 3).xi == pytest.approx(0.05)

    def test_worked_example(self):
        budget = error_bound(0.01, 0.01, 4, 2)
        assert budget.xi == pytest.approx(sqrt(1e-4 + 1e-4 * 7 / 64))

    def test_small_delta_regime(self):
        budget = error_bound(0.01, 1e-6, 6, 2)
        assert budget.xi == pytest.approx(budget.o, rel=1e-6)

    def test_lower_bounded_by_off_diagonal_error(self, rng):
        for _ in range(20):
            o = float(rng.uniform(0, 0.2))
            delta = float(rng.uniform(0, 0.2))
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 1))
            budget = error_bound(o, delta, n, k)
            assert budget.xi >= o
            assert budget.xi == pytest.approx(
                sqrt(o ** 2 + delta ** 2 * stirling2(n, k) / (8 * k ** 3)))

    def test_domain(self):
        with pytest.raises(DomainError):
            error_bound(-0.1, 0.0, 4, 2)
        with pytest.raises(DomainError):
            error_bound(0.1, 0.0, 4, 5)


class TestCvThresholds:
    def test_always_detected_iff_d_exceeds_delta(self):
        assert cv_detection_thresholds(2.0, 1.0, 0.5).always_detected
        assert not cv_detection_thresholds(1.0, 1.0, 0.5).always_detected
        assert not cv_detection_thresholds(0.5, 1.0, 0.5).always_detected

    def test_unit_point_exact(self):
        res = cv_detection_thresholds(Fraction(1), Fraction(1), Fraction(1))
        assert res.gme_p == Fraction(3, 5)
        assert res.ent_p == Fraction(1, 3)

    def test_closed_forms_exact_rationals(self):
        points = [(Fraction(i, 3), Fraction(j, 2), Fraction(kk, 4))
                  for i, j, kk in ((1, 3, 2), (2, 1, 1), (1, 5, 3), (4, 3, 1), (2, 7, 5))]
        for d, delta, alpha in points:
            res = cv_detection_thresholds(d, delta, alpha)
            core = d ** 3 * alpha ** 2
            assert res.gme_p == 3 * core / (3 * core + 2 * delta)
            assert res.ent_p == core / (core + 2 * delta)

    def test_gme_threshold_dominates(self, rng):
        for _ in range(20):
            d = float(rng.uniform(0.1, 1.0))
            delta = float(rng.uniform(d, 2.0))   # d <= delta regime
            alpha = float(rng.uniform(0.1, 3.0))
            res = cv_detection_thresholds(d, delta, alpha)
            assert res.gme_p > res.ent_p

    def test_monotone_in_delta(self):
        a = cv_detection_thresholds(1.0, 1.0, 1.0)
        b = cv_detection_thresholds(1.0, 10.0, 1.0)
        assert b.gme_p < a.gme_p and b.ent_p < a.ent_p

    def test_domain(self):
        with pytest.raises(DomainError):
            cv_detection_thresholds(0.0, 1.0, 1.0)
