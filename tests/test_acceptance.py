"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Runtime-sensitive criteria assert their stated budgets; every tolerance
is pinned here, not deferred.
"""

import time
from fractions import Fraction
from math import pi, sqrt

import numpy as np
import pytest
from conftest import record_criterion

import test_applications as applications_tables
from multisep import (
    EffectiveOpParams,
    HeisenbergParams,
    Lattice,
    ProbePair,
    QssSimulator,
    SpinHamiltonian,
    bloch_vector,
    cgme_pure,
    chsh_bound,
    cv_detection_thresholds,
    dicke_gme_value,
    dicke_state,
    double_class_value,
    effective_operator,
    entanglement_gaps,
    family_state,
    fidelity_witness_value,
    ghz_state,
    gme_value,
    hermitian_spectrum,
    ksep_value,
    maximally_mixed,
    min_ksep_energy,
    ntuple_class_value,
    pauli_expansion,
    ppt_check,
    q0_value,
    qm_value,
    qss_table,
    qss_verification_value,
    qubits,
    required_pauli_strings,
    singlet_value,
    stirling2,
    unique_k_partitions,
    vec_to_dm,
    w_state,
)
from multisep.sampling import random_biseparable_dm, random_ksep_dm, random_density_matrix
from multisep.states import random_pure_state
from multisep.tensor import StateVector


def bisect(detect, lo, hi, tol=1e-8):
    det_lo = detect(lo)
    assert detect(hi) != det_lo, "bracket does not change detection status"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if detect(mid) == det_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_ghz_isotropic_threshold_suite():
    started = time.perf_counter()
    provider = lambda a: family_state("ghz-iso", n=4, d=4, alpha=a,
                                      representation="provider")
    dense = lambda a: family_state("ghz-iso", n=4, d=4, alpha=a)
    probe = ProbePair((0, 0, 0, 0), (3, 3, 3, 3))
    targets = {
        "q0 f=4": (Fraction(149, 213), lambda a: q0_value(provider(a), f=4).violated),
        "q0 f=3": (Fraction(85, 213), lambda a: q0_value(provider(a), f=3).violated),
        "q0 f=2": (Fraction(7, 71), lambda a: q0_value(provider(a), f=2).violated),
        "ksep k=3": (Fraction(3, 35),
                     lambda a: ksep_value(provider(a), 3, probe).violated),
        "ksep k=4": (Fraction(1, 65),
                     lambda a: ksep_value(provider(a), 4, probe).violated),
        "ppt 1v3": (Fraction(1, 65), lambda a: ppt_check(dense(a), [0]).violated),
    }
    results = {}
    for label, (exact, detect) in targets.items():
        results[label] = bisect(detect, 0.0, 0.9)
        assert results[label] == pytest.approx(float(exact), abs=1e-6), label
    elapsed = time.perf_counter() - started
    record_criterion(
        "1 ghz-isotropic thresholds",
        all(abs(results[l] - float(e)) < 1e-6 for l, (e, _) in targets.items())
        and elapsed < 30.0,
        f"{len(targets)} thresholds within 1e-6 in {elapsed:.1f}s",
    )


def test_criterion_02_stirling_counts():
    ok = stirling2(4, 2) == 7 and stirling2(10, 3) == 9330
    ok = ok and abs(stirling2(20, 8) - 1.5e13) / 1.5e13 < 0.05
    for n in range(1, 11):
        for k in range(1, n + 1):
            ok = ok and len(unique_k_partitions(n, k)) == stirling2(n, k)
    record_criterion("2 stirling counts exact", ok,
                     f"S(20,8) = {stirling2(20, 8)}")


def test_criterion_03_dicke_anchor_and_provider_scaling():
    anchors_ok = True
    for n, m in ((3, 1), (4, 1), (4, 2), (6, 3), (8, 4)):
        value = dicke_gme_value(vec_to_dm(dicke_state(n, m)), m).value
        anchors_ok = anchors_ok and abs(value - m) < 1e-10

    provider_ok = True
    for n in (3, 4, 6, 8):
        m = max(1, n // 2)
        prov = family_state("dicke-iso", n=n, m=m, p=0.7, representation="provider")
        dense = prov.to_dense()
        dev = abs(dicke_gme_value(prov, m).value - dicke_gme_value(dense, m).value)
        provider_ok = provider_ok and dev < 1e-12

    started = time.perf_counter()
    prov20 = family_state("dicke-iso", n=20, m=1, p=0.6, representation="provider")
    report = dicke_gme_value(prov20, 1)
    elapsed = time.perf_counter() - started
    record_criterion(
        "3 dicke anchor + provider scaling",
        anchors_ok and provider_ok and elapsed < 10.0,
        f"n=20 evaluation {elapsed:.2f}s, value {report.value:.4f}",
    )


def test_criterion_04_fidelity_witness_constants():
    ghz_val = fidelity_witness_value(vec_to_dm(ghz_state(3)), "ghz3").value
    mixed_val = fidelity_witness_value(maximally_mixed(qubits(3)), "ghz3").value
    w_val = fidelity_witness_value(vec_to_dm(w_state(3)), "w3").value
    ok = (abs(ghz_val - 0.25) < 1e-12 and abs(mixed_val + 0.625) < 1e-12
          and abs(w_val - 1 / 3) < 1e-12)
    record_criterion("4 fidelity witness constants", ok,
                     f"GHZ3 {ghz_val:+.3f}, I/8 {mixed_val:+.3f}, W3 {w_val:+.3f}")


def test_criterion_05_soundness_sampling():
    started = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(20240501)
    worst = -np.inf
    ok = True

    for i in range(500):
        n = 3 if i % 2 == 0 else 4
        rho = random_biseparable_dm(qubits(n), rng)
        probe = ProbePair((0,) * n, (1,) * n)
        values = (
            gme_value(rho, probe).value,
            dicke_gme_value(rho, 1).value,
            q0_value(rho, f=2).value,
            double_class_value(rho).value,
            ntuple_class_value(rho).value,
        )
        worst = max(worst, *values)
        ok = ok and all(v <= tol for v in values)

    for i in range(500):
        n = 3 if i % 2 == 0 else 4
        k = 2 + i % (n - 1)
        rho = random_ksep_dm(qubits(n), k, rng)
        value = ksep_value(rho, k, ProbePair((0,) * n, (1,) * n)).value
        worst = max(worst, value)
        ok = ok and value <= tol

    elapsed = time.perf_counter() - started
    record_criterion("5 soundness sampling", ok and elapsed < 120.0,
                     f"1000 samples, worst value {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_convexity():
    rng = np.random.default_rng(77)
    probe = ProbePair((0, 0, 0), (1, 1, 1))
    criteria = {
        "ppt": lambda r: ppt_check(r, [0]).value,
        "gme": lambda r: gme_value(r, probe).value,
        "ksep2": lambda r: ksep_value(r, 2, probe).value,
        "ksep3": lambda r: ksep_value(r, 3, probe).value,
        "dicke": lambda r: dicke_gme_value(r, 1).value,
        "q0": lambda r: q0_value(r, f=2).value,
        "qm": lambda r: qm_value(r, 1).value,
        "double": lambda r: double_class_value(r).value,
        "ntuple": lambda r: ntuple_class_value(r).value,
        "fw-ghz3": lambda r: fidelity_witness_value(r, "ghz3").value,
        "fw-w3": lambda r: fidelity_witness_value(r, "w3").value,
    }
    from multisep import DensityMatrix
    ok = True
    worst = -np.inf
    for _ in range(200):
        rho1 = random_density_matrix(qubits(3), rng)
        rho2 = random_density_matrix(qubits(3), rng)
        t = float(rng.uniform())
        mix = DensityMatrix(qubits(3), t * rho1.mat + (1 - t) * rho2.mat,
                            validate=False)
        for name, evaluate in criteria.items():
            excess = evaluate(mix) - (t * evaluate(rho1) + (1 - t) * evaluate(rho2))
            worst = max(worst, excess)
            ok = ok and excess <= 1e-9
    record_criterion("6 convexity", ok,
                     f"200 triples x {len(criteria)} criteria, worst excess {worst:.2e}")


def test_criterion_07_cgme_bound():
    rng = np.random.default_rng(4242)
    probe = ProbePair((0, 0, 0), (1, 1, 1))
    ok = True
    for _ in range(200):
        psi = StateVector(qubits(3), random_pure_state(8, rng))
        rho = vec_to_dm(psi)
        bound = 2.0 * gme_value(rho, probe).value
        ok = ok and bound <= cgme_pure(psi).value + 1e-9
    ghz = ghz_state(3)
    tight = 2.0 * gme_value(vec_to_dm(ghz), probe).value
    ok = ok and abs(tight - cgme_pure(ghz).value) < 1e-9
    record_criterion("7 gme-concurrence bound", ok,
                     f"GHZ3 bound {tight:.6f} = exact value")


def test_criterion_08_ppt_matches_full_separability_threshold():
    ok = True
    details = []
    for n in (3, 4):
        for d in (2, 3, 4):
            if d ** n > 4096:
                continue
            provider = lambda a: family_state("ghz-iso", n=n, d=d, alpha=a,
                                              representation="provider")
            dense = lambda a: family_state("ghz-iso", n=n, d=d, alpha=a)
            probe = ProbePair((0,) * n, (d - 1,) * n)
            thr_ksep = bisect(lambda a: ksep_value(provider(a), n, probe).violated,
                              0.0, 0.9)
            thr_ppt = bisect(lambda a: ppt_check(dense(a), [0]).violated, 0.0, 0.9)
            exact = 1.0 / (d ** (n - 1) + 1)
            ok = ok and abs(thr_ksep - thr_ppt) < 1e-6
            ok = ok and abs(thr_ksep - exact) < 1e-6
            details.append(f"n={n},d={d}")
    record_criterion("8 ppt / k=n coincidence", ok, "; ".join(details))


def test_criterion_08_ppt_coincidence_beyond_the_dense_cap():
    # D = 4^8 = 65536: PPT on the provider's support, no dense matrix
    n, d = 8, 4
    provider = lambda a: family_state("ghz-iso", n=n, d=d, alpha=a,
                                      representation="provider")
    probe = ProbePair((0,) * n, (d - 1,) * n)
    thr_ksep = bisect(lambda a: ksep_value(provider(a), n, probe).violated, 0.0, 0.9)
    thr_ppt = bisect(lambda a: ppt_check(provider(a), [0]).violated, 0.0, 0.9)
    exact = 1.0 / (d ** (n - 1) + 1)
    ok = abs(thr_ppt - exact) < 1e-6 and abs(thr_ksep - exact) < 1e-6
    record_criterion("8 ppt / k=n coincidence beyond the dense cap", ok,
                     f"n={n},d={d}: ppt {thr_ppt:.9f}, ksep {thr_ksep:.9f}, 1/16385")


def test_criterion_09_qss():
    table = qss_table()
    sign = {"+": 1, "-": -1}
    table_ok = len(table) == 16
    # independent oracle: GHZ stabilizer parities XXX=+1, XYY=YXY=YYX=-1
    for (bob, charlie), alice in table.items():
        n_y = (bob[0] == "y") + (charlie[0] == "y") + (alice[0] == "y")
        table_ok = table_ok and n_y % 2 == 0
        expected = 1 if n_y == 0 else -1
        table_ok = table_ok and sign[alice[1]] * sign[bob[1]] * sign[charlie[1]] == expected
    table_ok = table_ok and table[("x-", "y+")] == "y+" and table[("x+", "x+")] == "x+"

    # simulation reproduces the table in every sifted round
    sim = QssSimulator()
    rng = np.random.default_rng(99)
    sim_ok = True
    for _ in range(4000):
        rnd = sim.round(rng)
        if rnd.sifted:
            sim_ok = sim_ok and rnd.outcomes[0] == table[(rnd.outcomes[1], rnd.outcomes[2])]

    strings = required_pauli_strings()
    reusable = [s for s in strings if set(s) <= {0, 3}]
    strings_ok = len(strings) == 16 and len(reusable) == 8

    expansions_ok = True
    for (bra, ket), terms in applications_tables.DISPLAYED_EXPANSIONS.items():
        got = pauli_expansion(bra, ket)
        expansions_ok = expansions_ok and set(got) == set(terms)
        for s, coeff in terms.items():
            expansions_ok = expansions_ok and abs(got[s] - coeff / 8) < 1e-15

    verify_ok = abs(
        qss_verification_value(sim.exact_expectations()).value - 0.5) < 1e-10
    record_criterion(
        "9 quantum secret sharing", table_ok and sim_ok and strings_ok
        and expansions_ok and verify_ok,
        "16 table entries, 8/16 reusable strings, 7 expansions",
    )


def test_criterion_10_manybody_gaps():
    started = time.perf_counter()
    lattice = Lattice.ring(6)
    ham = SpinHamiltonian(lattice, HeisenbergParams.from_gamma(0.0))
    report = entanglement_gaps(ham, restarts=32, seed=1)
    energies = [report.e0] + [report.energies[k] for k in range(2, 7)]
    ordering_ok = all(
        energies[i] <= energies[i + 1] + 2e-6 for i in range(len(energies) - 1))
    gme_gap_ok = report.gap(2) > 0

    field_ok = True
    cgme_ok = True
    for h in (3.0, -3.0):
        h_field = SpinHamiltonian(lattice, HeisenbergParams.from_gamma(0.0, h=h))
        e0 = float(hermitian_spectrum(h_field.dense())[0])
        res = min_ksep_energy(h_field, 2, restarts=32, seed=1, lower_bound=e0)
        field_ok = field_ok and abs(res.energy - e0) < 1e-6
        evals, evecs = np.linalg.eigh(h_field.dense())
        ground = StateVector(qubits(6), evecs[:, 0])
        cgme_ok = cgme_ok and cgme_pure(ground).value < 0.05
    elapsed = time.perf_counter() - started
    record_criterion(
        "10 many-body gaps", ordering_ok and gme_gap_ok and field_ok and cgme_ok
        and elapsed < 120.0,
        f"gap chain {[f'{e:.4f}' for e in energies]}, GME gap "
        f"{report.gap(2):.4f}, {elapsed:.1f}s",
    )


def test_criterion_11_cv_formulas():
    always_ok = (cv_detection_thresholds(2, 1, 1).always_detected
                 and not cv_detection_thresholds(1, 1, 1).always_detected
                 and not cv_detection_thresholds(1, 2, 1).always_detected)
    grid_ok = True
    points = [(Fraction(i, 2), Fraction(j, 3), Fraction(kk, 2))
              for i, j, kk in ((1, 1, 1), (2, 3, 1), (3, 2, 2), (1, 6, 3), (4, 1, 1),
                               (2, 5, 3), (5, 4, 2), (1, 9, 1), (3, 7, 4), (6, 2, 5))]
    for d, delta, alpha in points:
        res = cv_detection_thresholds(d, delta, alpha)
        core = d ** 3 * alpha ** 2
        grid_ok = grid_ok and res.gme_p == 3 * core / (3 * core + 2 * delta)
        grid_ok = grid_ok and res.ent_p == core / (core + 2 * delta)
        grid_ok = grid_ok and res.gme_p >= res.ent_p
    unit = cv_detection_thresholds(Fraction(1), Fraction(1), Fraction(1))
    grid_ok = grid_ok and unit.gme_p == Fraction(3, 5) and unit.ent_p == Fraction(1, 3)
    record_criterion("11 cv closed forms", always_ok and grid_ok,
                     "10-point exact rational grid")


def test_criterion_12_unstable():
    op_ok = True
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = EffectiveOpParams(alpha=float(rng.uniform(0, pi)),
                              phi=float(rng.uniform(0, 2 * pi)), t=0.0,
                              gamma1=float(rng.uniform(0, 3)),
                              gamma2=float(rng.uniform(0, 3)))
        n = bloch_vector(p)
        mat = effective_operator(p)
        op_ok = op_ok and abs(np.linalg.norm(n) - 1.0) < 1e-12
        op_ok = op_ok and np.allclose(np.linalg.eigvalsh(mat), [-1.0, 1.0], atol=1e-12)

    # time-parametrized settings coincide in direction at t=0: Alice's two
    # settings are equal, Bob's sit at +-45 degrees
    a = EffectiveOpParams(alpha=0.0)
    chsh = chsh_bound((a, a, EffectiveOpParams(alpha=pi / 4),
                       EffectiveOpParams(alpha=-pi / 4)))
    bound_ok = abs(chsh.b_plus - 2.0) < 1e-6

    optimal = (
        EffectiveOpParams(alpha=0.0),
        EffectiveOpParams(alpha=pi / 2),
        EffectiveOpParams(alpha=3 * pi / 4, phi=pi),
        EffectiveOpParams(alpha=3 * pi / 4, phi=0.0),
    )
    singlet_ok = abs(singlet_value(optimal) - 2 * sqrt(2)) < 1e-9
    record_criterion("12 unstable systems", op_ok and bound_ok and singlet_ok,
                     f"B_plus {chsh.b_plus:.8f}, singlet {singlet_value(optimal):.8f}")


def test_substitute_dicke_noise_threshold_monotone_in_n():
    # stand-in for the unreproducible large-n figure: at m=1 the white-noise
    # detection threshold decreases with n
    thresholds = []
    for n in (4, 6, 8):
        build = lambda p, nn=n: family_state("dicke-iso", n=nn, m=1, p=p,
                                             representation="provider")
        thresholds.append(bisect(lambda p: dicke_gme_value(build(p), 1).violated,
                                 0.0, 1.0))
    ok = thresholds[0] > thresholds[1] > thresholds[2]
    record_criterion("13 dicke threshold shrinks with n", ok,
                     f"p*(4,6,8) = {[f'{t:.4f}' for t in thresholds]}")
