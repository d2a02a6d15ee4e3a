"""Effective Heisenberg-picture observables for decaying two-level
systems and time-dependent CHSH bounds over product states.

A measurement on an exponentially decaying qubit is represented by
    O(alpha, phi, t) = (1 - |n|) I + n . sigma
with a Bloch vector n that shrinks like exp(-Gamma t), so the
probability of a positive outcome falls off with the decay law.  The
classical (local-realistic) bounds of a CHSH combination of four such
operators follow by optimising its expectation over pure product
states, which inherits time dependence from the operators; there is no
Schroedinger-picture formulation of measurements at unequal times.

Bob's optimum is closed form, and what is left depends on Alice's Bloch
vector a only through (na1 . a, na2 . a), convexly, so its extrema over
the sphere lie on the great circle through na1 and na2: `chsh_bound`
searches one angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, cosh, exp, inf, isfinite, sin, sinh, sqrt

import numpy as np

from .applications import PAULI
from .errors import DomainError
from .tensor import kron_all

# sigma_x, sigma_y, sigma_z from the package's one Pauli table; its sigma_2
# is the transposed sigma_y, so transposing it back gives the textbook one.
_SIGMA = (PAULI[1], PAULI[2].T, PAULI[3])

# equispaced angles on the circle whose local maxima are polished
_CIRCLE_POINTS = 64
# the polish stops when a step is at most _NEWTON_STEP radians, and is
# non-converged if some candidate has not after _NEWTON_ITER iterations
_NEWTON_STEP = 1e-10
_NEWTON_ITER = 50

_SINGLET = np.array([0, 1, -1, 0], dtype=complex) / sqrt(2)


@dataclass(frozen=True)
class EffectiveOpParams:
    """Measurement direction (alpha, phi), time t, and decay widths."""

    alpha: float
    phi: float = 0.0
    t: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if not all(map(isfinite, (self.alpha, self.phi, self.t, self.gamma1, self.gamma2))):
            raise DomainError(f"angles, time and decay widths must be finite, got {self}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise DomainError("decay widths must be non-negative")
        if self.t < 0:
            raise DomainError("time must be non-negative")

    @property
    def gamma_mean(self):
        return 0.5 * (self.gamma1 + self.gamma2)

    @property
    def gamma_diff(self):
        return 0.5 * (self.gamma1 - self.gamma2)


def bloch_vector(p):
    """The (shrinking) Bloch vector n(t) of the effective operator.

    Its z component e^{-g t} (sinh(dg t) + cosh(dg t) cos(alpha)) is bounded
    by 1; where sinh and cosh overflow it is taken in the equal form
    (e^{(dg-g)t} (1 + cos(alpha)) - e^{(-dg-g)t} (1 - cos(alpha))) / 2.
    """
    dg, g, c = p.gamma_diff, p.gamma_mean, cos(p.alpha)
    n = exp(-g * p.t) * np.array([
        cos(p.t + p.phi) * sin(p.alpha),
        sin(p.t + p.phi) * sin(p.alpha),
        1.0,
    ])
    try:
        z = sinh(dg * p.t) + cosh(dg * p.t) * c
    except OverflowError:
        z = inf
    if isfinite(z):
        n[2] *= z
    else:
        n[2] = 0.5 * (exp((dg - g) * p.t) * (1.0 + c) - exp((-dg - g) * p.t) * (1.0 - c))
    return n


def effective_operator(p):
    """O = (1 - |n|) I + n · sigma; eigenvalues 1 and 1 - 2|n|."""
    n = bloch_vector(p)
    mat = (1.0 - np.linalg.norm(n)) * np.eye(2, dtype=complex)
    for comp, sig in zip(n, _SIGMA):
        mat = mat + comp * sig
    return mat


def bell_operator(settings):
    """CHSH combination A1 (B1 + B2) + A2 (B1 - B2) of four effective
    operators; settings = (A1, A2, B1, B2)."""
    a1, a2, b1, b2 = (effective_operator(s) for s in _check_settings(settings))
    return kron_all([a1, b1 + b2]) + kron_all([a2, b1 - b2])


def singlet_value(settings):
    """tr(rho_singlet B) for the CHSH operator of the given settings."""
    mat = bell_operator(settings)
    return float(np.real(_SINGLET.conj() @ (mat @ _SINGLET)))


def _check_settings(settings):
    settings = tuple(settings)
    if len(settings) != 4:
        raise DomainError("need exactly four operator settings (A1, A2, B1, B2)")
    return settings


@dataclass(frozen=True)
class ChshBounds:
    b_minus: float
    b_plus: float
    converged: bool


def chsh_bound(settings):
    """Extrema of <a| ⊗ <b| B |a> ⊗ |b> over pure product states.

    With O = c I + n · sigma the expectation on a product state is affine
    in each party's Bloch vector, so party B's optimum is closed form:
    base ± |coefficient vector|.  Both are affine in Alice's Bloch vector
    a through x = (na1 · a, na2 · a) only, so either extremum, taken with
    its sign, is an affine term plus the norm of an affine map, a convex
    function of x.  Its maximum over the sphere lies where x is extreme,
    on the unit circle of span(na1, na2).  When the two vectors are
    parallel the circle passes through ±na1/|na1|, and when both vanish
    the value is constant, so any circle through the span serves.

    On that circle h(psi) is evaluated at `_CIRCLE_POINTS` equispaced
    angles in one array pass.  Every grid-local maximum is then polished
    at once by Newton's method on the analytic h', safeguarded by
    bisection of the bracket between its grid neighbours, and the best
    value evaluated is returned.  `converged` says that every polish
    reached a step of at most `_NEWTON_STEP` radians within
    `_NEWTON_ITER` iterations.  Local-realistic correlations cannot
    leave [b_minus, b_plus].
    """
    a1, a2, b1, b2 = _check_settings(settings)
    na1, na2 = bloch_vector(a1), bloch_vector(a2)
    nb1, nb2 = bloch_vector(b1), bloch_vector(b2)
    ca1, ca2 = 1.0 - np.linalg.norm(na1), 1.0 - np.linalg.norm(na2)
    cb_sum = (1.0 - np.linalg.norm(nb1)) + (1.0 - np.linalg.norm(nb2))
    cb_diff = (1.0 - np.linalg.norm(nb1)) - (1.0 - np.linalg.norm(nb2))
    nb_sum, nb_diff = nb1 + nb2, nb1 - nb2
    # orthonormal columns e1, e2 whose span holds na1 and na2; on the
    # circle a = cos(psi) e1 + sin(psi) e2, na_i . a = p_i cos + q_i sin
    span = np.column_stack([na1, na2])
    (p1, q1), (p2, q2) = span.T @ np.linalg.qr(span)[0]

    def circle(psi, sign):
        """h = sign * base + |coeff| at angles psi, and its first two derivatives."""
        c, s = np.cos(psi), np.sin(psi)
        # g_i = ca_i + na_i . a and its derivatives, one row each
        g1 = np.stack([ca1 + (p1 * c + q1 * s), q1 * c - p1 * s, -(p1 * c + q1 * s)])
        g2 = np.stack([ca2 + (p2 * c + q2 * s), q2 * c - p2 * s, -(p2 * c + q2 * s)])
        base = g1 * cb_sum + g2 * cb_diff
        coeff = g1[..., None] * nb_sum + g2[..., None] * nb_diff
        norm = np.sqrt(np.einsum("ij,ij->i", coeff[0], coeff[0]))
        # (|coeff|^2)' / 2 and (|coeff|^2)'' / 2
        half_d1 = np.einsum("ij,ij->i", coeff[0], coeff[1])
        half_d2 = np.einsum("ij,ij->i", coeff[1], coeff[1]) + np.einsum(
            "ij,ij->i", coeff[0], coeff[2])
        return (sign * base[0] + norm,
                sign * base[1] + half_d1 / norm,
                sign * base[2] + half_d2 / norm - half_d1 ** 2 / norm ** 3)

    width = 2.0 * np.pi / _CIRCLE_POINTS
    grid = np.arange(_CIRCLE_POINTS) * width
    signs = np.array([1.0, -1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = circle(np.tile(grid, 2), np.repeat(signs, _CIRCLE_POINTS))[0]
        vals = vals.reshape(2, _CIRCLE_POINTS)
        best = vals.max(axis=1)
        row, col = np.nonzero((vals >= np.roll(vals, 1, axis=1))
                              & (vals >= np.roll(vals, -1, axis=1)))
        psi = grid[col]
        lo, hi = psi - width, psi + width
        for _ in range(_NEWTON_ITER):
            if not row.size:
                break
            h, slope, curve = circle(psi, signs[row])
            np.maximum.at(best, row, h)
            lo = np.where(slope > 0, psi, lo)
            hi = np.where(slope < 0, psi, hi)
            newton = psi - slope / curve
            step = np.where((curve < 0) & (newton >= lo) & (newton <= hi),
                            newton, 0.5 * (lo + hi)) - psi
            live = (np.abs(step) > _NEWTON_STEP) & (slope != 0)
            row, psi, lo, hi = row[live], (psi + step)[live], lo[live], hi[live]
    return ChshBounds(b_minus=-float(best[1]), b_plus=float(best[0]),
                      converged=not row.size)
