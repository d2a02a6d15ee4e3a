"""The CHSH great-circle search and the array-pass QSS rounds against the
recorded outputs of the loops they replaced, and the CHSH bounds against
every product state.

The replaced CHSH search evaluated one `extremum` per cell of a
theta x phi grid of Alice's sphere, with an optional Nelder-Mead polish;
the replaced QSS rounds drew one `rng.choice(8, p=...)` per round.  Their
outputs on the fixed settings and seeds below are pinned in
pins/applications.json.  `chsh_bound` searches the one great circle that
holds the optimum, so it must reach at least each pinned B+ and at most
each pinned B- (to 1e-12), and no product state may lie outside its
bounds.  QSS counts, round sequences, generator states and outcome CDFs
must be exactly equal, since the CLI promises byte-identical output for
identical flags and seeds.
"""

import hashlib
import json
from math import pi
from pathlib import Path

import numpy as np
import pytest

from multisep import EffectiveOpParams, QssSimulator, chsh_bound, qss_round
from multisep import applications
from multisep.unstable import bloch_vector

PINS = json.loads((Path(__file__).parent / "pins" / "applications.json").read_text())

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


def _assert_reaches(settings, pinned):
    """chsh_bound converges and reaches each pinned [B+, B-] pair."""
    for s, (b_plus, b_minus) in zip(settings, pinned, strict=True):
        bounds = chsh_bound(s)
        assert bounds.converged
        assert bounds.b_plus >= b_plus - 1e-12
        assert bounds.b_minus <= b_minus + 1e-12


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("grid", SMALL_GRIDS)
def test_chsh_bound_matches_scalar_grid(grid, refine):
    # the circle search matches or beats the sphere grid with its polish
    _assert_reaches(SETTINGS, PINS["chsh_bounds"][f"{grid[0]}x{grid[1]}-{refine}"])


@pytest.mark.parametrize("refine", [False, True])
def test_chsh_bound_matches_scalar_grid_default(refine):
    # the 64 x 128 grid, pinned on the first ten, which cover every special case
    _assert_reaches(SETTINGS[:10], PINS["chsh_bounds"][f"default-{refine}"])


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


def _summary(rounds, sifted, matches, eavesdrop):
    """QssSimulator.run's report for these counts."""
    return {
        "rounds": rounds,
        "sifted": sifted,
        "sift_rate": sifted / rounds if rounds else 0.0,
        "key_matches": matches,
        "match_rate": matches / sifted if sifted else 0.0,
        "eavesdrop": eavesdrop,
    }


def _round_line(rnd):
    return f"{''.join(rnd.bases)} {','.join(rnd.outcomes)} {int(rnd.sifted)} {rnd.alice_state}\n"


@pytest.mark.parametrize("eavesdrop", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("rounds", [0, 1, 7, 5000])
def test_qss_run_matches_choice_loop(eavesdrop, seed, rounds):
    sifted, matches = PINS["qss_runs"][f"{eavesdrop}-{seed}-{rounds}"]
    assert QssSimulator(eavesdrop).run(rounds, seed=seed) == \
        _summary(rounds, sifted, matches, eavesdrop)


@pytest.mark.parametrize("eavesdrop", [False, True])
def test_qss_rounds_match_choice_loop(eavesdrop):
    pins = PINS["qss_rounds"][str(eavesdrop)]
    assert [_round_line(qss_round(seed=seed, eavesdrop=eavesdrop))
            for seed in range(20)] == pins["seeds_0_to_19"]
    sim, rng = QssSimulator(eavesdrop), np.random.default_rng(77)
    lines = "".join(_round_line(sim.round(rng)) for _ in range(2000))
    assert hashlib.sha256(lines.encode()).hexdigest() == pins["rng77_2000_sha256"]
    # the generator is left in the same state
    assert rng.random() == pins["rng77_next_random"]


@pytest.mark.parametrize("eavesdrop", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 99, 2 ** 40 + 1])
def test_qss_run_across_chunk_edges(monkeypatch, eavesdrop, seed):
    # chunks of 4 rounds: runs that end inside, at and past a chunk edge
    monkeypatch.setattr(applications, "_ROUND_CHUNK", 4)
    sim = QssSimulator(eavesdrop)
    pinned = PINS["qss_chunk_edges"][f"{eavesdrop}-{seed}"]
    for rounds, (sifted, matches) in zip([*range(12), 1001], pinned, strict=True):
        assert sim.run(rounds, seed=seed) == _summary(rounds, sifted, matches, eavesdrop)


@pytest.mark.parametrize("eavesdrop", [False, True])
def test_qss_tables_equal_the_projector_loop(eavesdrop):
    # the resource |psi><psi| (GHZ or |000>) and its outcome CDFs as one
    # kron_all projector and one trace per outcome built them
    pins = PINS["qss_tables"][str(eavesdrop)]
    sim = QssSimulator(eavesdrop=eavesdrop)
    assert hashlib.sha256(sim.resource.mat.tobytes()).hexdigest() == pins["resource_sha256"]
    assert sim._cdfs.tobytes() == np.array(pins["cdfs"]).tobytes()
