from math import exp, log, pi, sqrt

import numpy as np
import pytest

from multisep import (
    DomainError,
    EffectiveOpParams,
    bell_operator,
    bloch_vector,
    chsh_bound,
    effective_operator,
    singlet_value,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

# singlet-optimal CHSH directions: A along z and x, B along -(z+x)/sqrt2
# and (x-z)/sqrt2
ORTHOGONAL = (
    EffectiveOpParams(alpha=0.0),
    EffectiveOpParams(alpha=pi / 2),
    EffectiveOpParams(alpha=3 * pi / 4, phi=pi),
    EffectiveOpParams(alpha=3 * pi / 4, phi=0.0),
)


def shrink_setting(scale):
    """Fixed measurement direction z with |n| = scale (gamma tuned at t=1)."""
    gamma = -log(scale) if scale < 1.0 else 0.0
    t = 1.0 if scale < 1.0 else 0.0
    return EffectiveOpParams(alpha=0.0, phi=-t, t=t, gamma1=gamma, gamma2=gamma)


class TestEffectiveOperator:
    def test_z_direction_at_zero_time(self):
        assert np.allclose(effective_operator(EffectiveOpParams(alpha=0.0)), SZ)

    def test_x_direction_at_zero_time(self):
        assert np.allclose(effective_operator(EffectiveOpParams(alpha=pi / 2)), SX)

    def test_unit_bloch_at_zero_time(self, rng):
        for _ in range(20):
            p = EffectiveOpParams(alpha=rng.uniform(0, pi), phi=rng.uniform(0, 2 * pi),
                                  t=0.0, gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2))
            assert np.linalg.norm(bloch_vector(p)) == pytest.approx(1.0)
            evals = np.linalg.eigvalsh(effective_operator(p))
            assert np.allclose(evals, [-1.0, 1.0])

    def test_equal_widths_decay(self):
        p = EffectiveOpParams(alpha=0.7, phi=0.3, t=1.3, gamma1=0.5, gamma2=0.5)
        assert np.linalg.norm(bloch_vector(p)) == pytest.approx(exp(-0.5 * 1.3))
        evals = np.linalg.eigvalsh(effective_operator(p))
        assert evals[-1] == pytest.approx(1.0)
        assert evals[0] == pytest.approx(1.0 - 2 * exp(-0.5 * 1.3))

    def test_eigenvalue_pattern_random_draws(self, rng):
        for _ in range(100):
            p = EffectiveOpParams(
                alpha=rng.uniform(0, pi), phi=rng.uniform(0, 2 * pi),
                t=rng.uniform(0, 3), gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2))
            norm = np.linalg.norm(bloch_vector(p))
            evals = np.linalg.eigvalsh(effective_operator(p))
            assert np.allclose(sorted(evals), sorted([1.0, 1.0 - 2 * norm]), atol=1e-12)

    @staticmethod
    def bounded_z(p):
        """e^{-g t} (sinh(dg t) + cosh(dg t) cos(alpha)) without sinh/cosh."""
        g, dg, c = p.gamma_mean, p.gamma_diff, np.cos(p.alpha)
        return 0.5 * (exp((dg - g) * p.t) * (1 + c) - exp((-dg - g) * p.t) * (1 - c))

    @pytest.mark.parametrize("gamma1, gamma2, t", [
        (1400.0, 0.0, 1.0), (0.0, 1400.0, 1.0), (700.0, 0.0, 2.0), (3.0, 1.0, 2.5)])
    def test_bounded_form_agrees_where_sinh_is_finite(self, gamma1, gamma2, t):
        p = EffectiveOpParams(alpha=1.1, phi=0.2, t=t, gamma1=gamma1, gamma2=gamma2)
        assert bloch_vector(p)[2] == pytest.approx(self.bounded_z(p), rel=1e-12)

    @pytest.mark.parametrize("gamma1, gamma2", [(2000.0, 0.0), (0.0, 2000.0),
                                                (1e6, 3.0), (1e300, 0.0)])
    def test_wide_decay_widths_do_not_overflow(self, gamma1, gamma2):
        for alpha in (0.0, 1.1, pi):
            p = EffectiveOpParams(alpha=alpha, t=1.0, gamma1=gamma1, gamma2=gamma2)
            n = bloch_vector(p)
            assert np.all(np.isfinite(n)) and np.linalg.norm(n) <= 1.0
            assert n[2] == pytest.approx(self.bounded_z(p), rel=1e-12, abs=1e-300)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            EffectiveOpParams(alpha=0.0, t=-1.0)
        with pytest.raises(DomainError):
            EffectiveOpParams(alpha=0.0, gamma1=-0.5)


class TestChshBound:
    def test_identical_settings_classical_bound(self):
        s0 = EffectiveOpParams(alpha=0.0)
        bounds = chsh_bound((s0, s0, s0, s0))
        assert bounds.b_plus == pytest.approx(2.0, abs=1e-6)
        assert bounds.b_minus == pytest.approx(-2.0, abs=1e-6)

    def test_aligned_alice_settings_reach_two(self):
        a = EffectiveOpParams(alpha=0.0)
        b1 = EffectiveOpParams(alpha=pi / 4)
        b2 = EffectiveOpParams(alpha=-pi / 4)
        bounds = chsh_bound((a, a, b1, b2))
        assert bounds.b_plus == pytest.approx(2.0, abs=1e-6)

    def test_orthogonal_settings_separable_bound(self):
        # with sigma_z / sigma_x on Alice's side no product state reaches the
        # LHV value 2; the optimum is sqrt(2)
        bounds = chsh_bound(ORTHOGONAL)
        assert bounds.b_plus == pytest.approx(sqrt(2), abs=1e-6)
        assert bounds.b_minus == pytest.approx(-sqrt(2), abs=1e-6)

    def test_singlet_exceeds_product_bound(self):
        bounds = chsh_bound(ORTHOGONAL)
        value = singlet_value(ORTHOGONAL)
        assert value == pytest.approx(2 * sqrt(2), abs=1e-9)
        assert value > bounds.b_plus

    def test_strong_decay_collapses_bounds(self):
        s = EffectiveOpParams(alpha=0.3, phi=0.1, t=1.0, gamma1=30.0, gamma2=30.0)
        bounds = chsh_bound((s, s, s, s))
        assert bounds.b_plus - bounds.b_minus < 1e-10
        assert bounds.b_plus == pytest.approx(2.0, abs=1e-9)

    def test_bound_spread_shrinks_along_decay_ray(self):
        spreads = []
        plus = []
        for scale in np.linspace(1.0, 0.05, 10):
            bounds = chsh_bound(tuple(shrink_setting(scale) for _ in range(4)))
            spreads.append(bounds.b_plus - bounds.b_minus)
            plus.append(bounds.b_plus)
        assert all(s1 >= s2 - 1e-9 for s1, s2 in zip(spreads, spreads[1:]))
        # B_plus itself never increases along the ray
        assert all(p1 >= p2 - 1e-9 for p1, p2 in zip(plus, plus[1:]))

    def test_refinement_never_below_grid(self):
        # the polished bounds bracket every product-state value on a
        # 16 x 32 theta x phi grid of Alice's sphere, Bob optimal
        settings = (
            EffectiveOpParams(alpha=0.3, phi=0.4, t=0.5, gamma1=0.2, gamma2=0.6),
            EffectiveOpParams(alpha=1.1, phi=2.0, t=0.5, gamma1=0.2, gamma2=0.6),
            EffectiveOpParams(alpha=2.2, phi=1.1, t=0.8, gamma1=0.2, gamma2=0.6),
            EffectiveOpParams(alpha=0.9, phi=5.0, t=0.8, gamma1=0.2, gamma2=0.6),
        )
        theta, phi = np.meshgrid(np.linspace(0, pi, 16), np.linspace(0, 2 * pi, 32))
        alice = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                          np.cos(theta)], axis=-1).reshape(-1, 3)
        (na1, ca1), (na2, ca2), (nb1, cb1), (nb2, cb2) = (
            (n, 1 - np.linalg.norm(n)) for n in map(bloch_vector, settings))
        g1, g2 = ca1 + alice @ na1, ca2 + alice @ na2
        base = g1 * (cb1 + cb2) + g2 * (cb1 - cb2)
        spread = np.linalg.norm(g1[:, None] * (nb1 + nb2) + g2[:, None] * (nb1 - nb2), axis=1)
        bounds = chsh_bound(settings)
        assert bounds.converged
        assert bounds.b_plus >= np.max(base + spread) - 1e-12
        assert bounds.b_minus <= np.min(base - spread) + 1e-12

    def test_ordering(self):
        bounds = chsh_bound(ORTHOGONAL)
        assert bounds.b_minus <= bounds.b_plus

    def test_settings_arity(self):
        s = EffectiveOpParams(alpha=0.0)
        with pytest.raises(DomainError):
            chsh_bound((s, s, s))


class TestBellOperator:
    def test_matrix_at_zero_time(self):
        op = bell_operator(ORTHOGONAL)
        b1 = -(SZ + SX) / sqrt(2)
        b2 = (SX - SZ) / sqrt(2)
        expected = np.kron(SZ, b1 + b2) + np.kron(SX, b1 - b2)
        assert np.allclose(op, expected)

    def test_singlet_correlation(self):
        # <Psi-| a.s ⊗ b.s |Psi-> = -a.b for unit Bloch vectors
        a = EffectiveOpParams(alpha=0.0)
        value = singlet_value((a, a, a, a))
        assert value == pytest.approx(-2.0)
