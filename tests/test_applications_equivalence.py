"""The CHSH great-circle search and the array-pass QSS rounds against the
loops they replaced.

The oracle_* code below is the scalar implementation kept verbatim in
logic: one `extremum` call per cell of a theta x phi grid of Alice's
sphere with a Nelder-Mead polish, and one `rng.choice(8, p=...)` per
protocol round.  `chsh_bound` now searches the one great circle that
holds the optimum, so it must reach at least the oracle's B+ and at most
its B- (to 1e-12), and no product state may lie outside its bounds.
QSS counts must be exactly equal (`==`), since the CLI promises
byte-identical output for identical flags and seeds.  The oracles are
kept for one release as a safety net and then deleted.
"""

from itertools import product
from math import cos, pi, sin

import numpy as np
import pytest
from scipy.optimize import minimize

from multisep import DomainError, EffectiveOpParams, QssSimulator, chsh_bound, qss_round
from multisep import applications
from multisep.applications import _BASIS_VECTORS, QssRound, qss_table
from multisep.states import ghz_amplitudes
from multisep.tensor import kron_all
from multisep.unstable import ChshBounds, _check_settings, bloch_vector

# ---------------------------------------------------------------------------
# Oracles: the scalar loops the array pass and the outcome tables replaced
# ---------------------------------------------------------------------------


def _unit(theta, phi):
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


def oracle_chsh_bound(settings, grid=(64, 128), refine=True):
    a1, a2, b1, b2 = _check_settings(settings)
    na1, na2 = bloch_vector(a1), bloch_vector(a2)
    nb1, nb2 = bloch_vector(b1), bloch_vector(b2)
    ca1, ca2 = 1.0 - np.linalg.norm(na1), 1.0 - np.linalg.norm(na2)
    cb_sum = (1.0 - np.linalg.norm(nb1)) + (1.0 - np.linalg.norm(nb2))
    cb_diff = (1.0 - np.linalg.norm(nb1)) - (1.0 - np.linalg.norm(nb2))
    nb_sum, nb_diff = nb1 + nb2, nb1 - nb2

    def extremum(avec, sign):
        g1 = ca1 + na1 @ avec
        g2 = ca2 + na2 @ avec
        base = g1 * cb_sum + g2 * cb_diff
        coeff = g1 * nb_sum + g2 * nb_diff
        return base + sign * np.linalg.norm(coeff)

    n_theta, n_phi = grid
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)

    results = {}
    converged = True
    for sign, label in ((1.0, "max"), (-1.0, "min")):
        best_val = -np.inf
        best_angles = (0.0, 0.0)
        for th in thetas:
            for ph in phis:
                val = sign * extremum(_unit(th, ph), sign)
                if val > best_val:
                    best_val = val
                    best_angles = (th, ph)
        if refine:
            res = minimize(
                lambda x: -sign * extremum(_unit(x[0], x[1]), sign),
                x0=np.array(best_angles),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
            )
            converged = converged and bool(res.success)
            best_val = max(best_val, float(-res.fun))
        results[label] = sign * best_val
    return ChshBounds(b_minus=results["min"], b_plus=results["max"], converged=converged)


class OracleQss:
    """QssSimulator's sampling as it was: a probability vector per basis
    triple and one `rng.choice` per round."""

    def __init__(self, eavesdrop=False):
        self.eavesdrop = bool(eavesdrop)
        self.resource = QssSimulator(eavesdrop=eavesdrop).resource
        self._table = qss_table()
        self._bases = [tuple(b) for b in product("xy", repeat=3)]
        self._outcomes = {}
        for bases in self._bases:
            combos = [tuple(b + s for b, s in zip(bases, signs))
                      for signs in product("+-", repeat=3)]
            probs = []
            for combo in combos:
                proj = kron_all([np.outer(_BASIS_VECTORS[c], _BASIS_VECTORS[c].conj())
                                 for c in combo])
                probs.append(max(np.trace(self.resource.mat @ proj).real, 0.0))
            probs = np.array(probs)
            self._outcomes[bases] = (combos, probs / probs.sum())

    def round(self, rng):
        bases = self._bases[rng.integers(0, len(self._bases))]
        combos, probs = self._outcomes[bases]
        outcomes = combos[rng.choice(len(combos), p=probs)]
        alice_state = self._table[(outcomes[1], outcomes[2])]
        sifted = bases[0] == alice_state[0]
        return QssRound(bases=bases, outcomes=outcomes, sifted=sifted,
                        alice_state=alice_state)

    def run(self, rounds, seed=0):
        rng = np.random.default_rng(seed)
        sifted = 0
        matches = 0
        for _ in range(rounds):
            rnd = self.round(rng)
            if rnd.sifted:
                sifted += 1
                if rnd.outcomes[0] == rnd.alice_state:
                    matches += 1
        return {
            "rounds": rounds,
            "sifted": sifted,
            "sift_rate": sifted / rounds if rounds else 0.0,
            "key_matches": matches,
            "match_rate": matches / sifted if sifted else 0.0,
            "eavesdrop": self.eavesdrop,
        }


# ---------------------------------------------------------------------------
# CHSH bounds
# ---------------------------------------------------------------------------


def _random_settings(seed, equatorial=False):
    """Four settings; even seeds share t and the widths as the CLI does.

    Equatorial settings (alpha = pi/2) make the cells at theta and
    pi - theta tie up to the last digit, where the array and the scalar
    arithmetic can order them differently.
    """
    rng = np.random.default_rng(seed)
    shared = (rng.uniform(0, 2), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
    out = []
    for _ in range(4):
        t, g1, g2 = shared if seed % 2 == 0 else (
            rng.uniform(0, 2), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
        alpha = pi / 2 if equatorial else rng.uniform(-pi, pi)
        out.append(EffectiveOpParams(alpha=alpha, phi=rng.uniform(-pi, pi),
                                     t=t, gamma1=g1, gamma2=g2))
    return tuple(out)


def _special_settings():
    zero = EffectiveOpParams(alpha=0.0)
    decayed_zero = EffectiveOpParams(alpha=0.0, t=1.1, gamma1=0.3, gamma2=0.1)
    rnd = _random_settings(100)
    south = EffectiveOpParams(alpha=pi, phi=0.4, t=0.5, gamma1=0.2, gamma2=0.2)
    return [
        (zero,) * 4,                                          # all-zero angles, t = 0
        (decayed_zero,) * 4,                                  # all-zero angles, decayed
        tuple(EffectiveOpParams(alpha=s.alpha, phi=s.phi, t=0.0,
                                gamma1=s.gamma1, gamma2=s.gamma2) for s in rnd),  # t = 0
        tuple(EffectiveOpParams(alpha=s.alpha, phi=s.phi, t=s.t) for s in rnd),  # gamma = 0
        (rnd[0],) * 4,                                        # equal settings
        (rnd[0], rnd[0], rnd[1], rnd[1]),                     # A1 = A2, B1 = B2
        (EffectiveOpParams(alpha=0.0), EffectiveOpParams(alpha=pi / 2),
         EffectiveOpParams(alpha=3 * pi / 4, phi=pi),
         EffectiveOpParams(alpha=3 * pi / 4, phi=0.0)),      # singlet-optimal, poles
        (south, south, zero, EffectiveOpParams(alpha=pi)),    # south pole
        # Bloch vectors of size exp(-60): every grid cell ties near 0
        (EffectiveOpParams(alpha=0.3, t=2.0, gamma1=30.0, gamma2=30.0),) * 4,
    ]


# the equatorial seeds are ones whose 2 x 3 grid holds such a last-digit
# tie, so a cell choice from the array values alone would differ
SETTINGS = (_special_settings() + [_random_settings(seed) for seed in range(32)]
            + [_random_settings(seed, equatorial=True) for seed in (163, 278, 528, 832)])
SMALL_GRIDS = [(1, 1), (2, 3), (16, 32)]


def test_enough_settings():
    assert len(SETTINGS) >= 40


def _assert_reaches(bounds, oracle):
    assert bounds.converged
    assert bounds.b_plus >= oracle.b_plus - 1e-12
    assert bounds.b_minus <= oracle.b_minus + 1e-12


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("grid", SMALL_GRIDS)
def test_chsh_bound_matches_scalar_grid(grid, refine):
    # the circle search matches or beats the sphere grid with its polish
    for settings in SETTINGS:
        _assert_reaches(chsh_bound(settings), oracle_chsh_bound(settings, grid=grid,
                                                                refine=refine))


@pytest.mark.parametrize("refine", [False, True])
def test_chsh_bound_matches_scalar_grid_default(refine):
    # the first ten cover every special case; the scalar oracle needs
    # about 0.2 s per call on this grid
    for settings in SETTINGS[:10]:
        _assert_reaches(chsh_bound(settings), oracle_chsh_bound(settings, refine=refine))


def _product_values(settings, alice):
    """Both extrema over Bob of the CHSH value at Alice's Bloch vectors
    (rows of `alice`), as (max, min) arrays."""
    (na1, ca1), (na2, ca2), (nb1, cb1), (nb2, cb2) = (
        (n, 1.0 - np.linalg.norm(n)) for n in map(bloch_vector, settings))
    g1, g2 = ca1 + alice @ na1, ca2 + alice @ na2
    base = g1 * (cb1 + cb2) + g2 * (cb1 - cb2)
    spread = np.linalg.norm(g1[:, None] * (nb1 + nb2) + g2[:, None] * (nb1 - nb2), axis=1)
    return base + spread, base - spread


def test_no_product_state_beyond_the_bounds():
    rng = np.random.default_rng(2024)
    for settings in SETTINGS:
        alice = rng.normal(size=(100_000, 3))
        alice /= np.linalg.norm(alice, axis=1, keepdims=True)
        upper, lower = _product_values(settings, alice)
        bounds = chsh_bound(settings)
        assert upper.max() <= bounds.b_plus + 1e-12
        assert lower.min() >= bounds.b_minus - 1e-12


def test_fine_circle_sweep_agrees():
    # 10^5 angles on the great circle through na1 and na2 (any circle
    # through the span where they are parallel or zero).  No angle beats
    # the bounds by more than 1e-12; the best angle falls short of them by
    # at most the sweep's resolution, |h''| (pi / 10^5)^2 / 2 < 1e-8.
    psi = np.linspace(0.0, 2.0 * pi, 100_000, endpoint=False)
    for settings in SETTINGS:
        na1, na2 = bloch_vector(settings[0]), bloch_vector(settings[1])
        e1, e2 = np.linalg.qr(np.column_stack([na1, na2]))[0].T
        upper, lower = _product_values(settings, np.outer(np.cos(psi), e1)
                                       + np.outer(np.sin(psi), e2))
        bounds = chsh_bound(settings)
        assert 0.0 <= bounds.b_plus - upper.max() + 1e-12 <= 1e-8
        assert 0.0 <= lower.min() - bounds.b_minus + 1e-12 <= 1e-8


# ---------------------------------------------------------------------------
# QSS rounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eavesdrop", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("rounds", [0, 1, 7, 5000])
def test_qss_run_matches_choice_loop(eavesdrop, seed, rounds):
    assert QssSimulator(eavesdrop).run(rounds, seed=seed) == \
        OracleQss(eavesdrop).run(rounds, seed=seed)


@pytest.mark.parametrize("eavesdrop", [False, True])
def test_qss_rounds_match_choice_loop(eavesdrop):
    sim, oracle = QssSimulator(eavesdrop), OracleQss(eavesdrop)
    for seed in range(20):
        assert qss_round(seed=seed, eavesdrop=eavesdrop) == \
            oracle.round(np.random.default_rng(seed))
    new_rng, old_rng = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(2000):
        assert sim.round(new_rng) == oracle.round(old_rng)
    # both leave the generator in the same state
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("eavesdrop", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 99, 2 ** 40 + 1])
def test_qss_run_across_chunk_edges(monkeypatch, eavesdrop, seed):
    # chunks of 4 rounds: runs that end inside, at and past a chunk edge
    monkeypatch.setattr(applications, "_ROUND_CHUNK", 4)
    sim, oracle = QssSimulator(eavesdrop), OracleQss(eavesdrop)
    for rounds in [*range(12), 1001]:
        assert sim.run(rounds, seed=seed) == oracle.run(rounds, seed=seed)


def _hand_built_resource(eavesdrop):
    """|psi><psi| as the simulator built it before it called vec_to_dm:
    the GHZ amplitudes placed at big-endian indices by hand, or |000>."""
    vec = np.zeros(8, dtype=complex)
    if eavesdrop:
        vec[0] = 1.0
    else:
        for mi, amp in ghz_amplitudes(3, 2).items():
            vec[mi[0] * 4 + mi[1] * 2 + mi[2]] = amp
    return np.outer(vec, vec.conj())


def _projector_cdfs(mat):
    """The outcome CDFs as built before the one-pass <v|rho|v>: one
    kron_all projector and one trace per outcome."""
    cdfs = []
    for bases in product("xy", repeat=3):
        probs = []
        for signs in product("+-", repeat=3):
            proj = kron_all([np.outer(_BASIS_VECTORS[b + s], _BASIS_VECTORS[b + s].conj())
                             for b, s in zip(bases, signs)])
            probs.append(max(np.trace(mat @ proj).real, 0.0))
        probs = np.array(probs)
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf)
    return np.array(cdfs)


@pytest.mark.parametrize("eavesdrop", [False, True])
def test_qss_tables_equal_the_projector_loop(eavesdrop):
    sim = QssSimulator(eavesdrop=eavesdrop)
    hand_built = _hand_built_resource(eavesdrop)
    # the oracle reads its resource from QssSimulator, so this pins it too
    assert sim.resource.mat.tobytes() == hand_built.tobytes()
    assert sim._cdfs.tobytes() == _projector_cdfs(hand_built).tobytes()
    oracle = OracleQss(eavesdrop)
    for bases, cdf in zip(oracle._bases, sim._cdfs):
        want = oracle._outcomes[bases][1].cumsum()
        want /= want[-1]
        assert cdf.tobytes() == want.tobytes()


def test_qss_run_rejects_negative_rounds():
    with pytest.raises(DomainError, match="rounds"):
        QssSimulator().run(-5)
