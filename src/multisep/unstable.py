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

# grid cells evaluated per array pass, which bounds the pass's memory
_GRID_CHUNK = 1 << 16
# array values this close (relative, at least 1 as the scale) to the grid
# maximum are re-checked with the scalar expression, which picks the cell
_TIE_RTOL = 1e-12

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


def _unit(theta, phi):
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


@dataclass(frozen=True)
class ChshBounds:
    b_minus: float
    b_plus: float
    converged: bool


def chsh_bound(settings, grid=(64, 128), refine=True):
    """Extrema of <a| ⊗ <b| B |a> ⊗ |b> over pure product states.

    With O = c I + n · sigma, the expectation on a product state is
    affine in each party's Bloch vector, so party B's optimum is closed
    form (base ± |coefficient vector|); party A's sphere is gridded
    (theta x phi resolution per `grid`, each at least 1) and the best
    cell is polished by Nelder-Mead.  Local-realistic correlations
    cannot leave [b_minus, b_plus].

    The grid is evaluated in array passes.  Cells whose array value lies
    within 1e-12 * max(1, |grid maximum|) of the grid maximum are
    evaluated again with the scalar expression the polish uses, in grid
    order, and the first strictly largest wins, so ties and last-digit
    differences between the array and scalar arithmetic cannot change
    the chosen cell.
    """
    a1, a2, b1, b2 = _check_settings(settings)
    n_theta, n_phi = grid
    if n_theta < 1 or n_phi < 1:
        raise DomainError(f"grid sizes must be at least 1, got {n_theta} x {n_phi}")
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

    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    # the factors of _unit, from the same scalar sin and cos, so the
    # array's unit vectors equal _unit's bit for bit
    sin_t, cos_t = (np.array([f(x) for x in thetas]) for f in (sin, cos))
    sin_p, cos_p = (np.array([f(x) for x in phis]) for f in (sin, cos))
    rows = max(1, _GRID_CHUNK // n_phi)

    def grid_candidates(sign):
        """Flat grid indices, in grid order, of every cell near the grid
        maximum of sign * extremum, plus any near an earlier chunk's
        running maximum; none when every value is NaN."""
        top, cand = -np.inf, []
        for start in range(0, n_theta, rows):
            st, ct = sin_t[start:start + rows, None], cos_t[start:start + rows, None]
            units = np.stack(np.broadcast_arrays(st * cos_p, st * sin_p, ct),
                             axis=-1).reshape(-1, 3)
            g1 = ca1 + units @ na1
            g2 = ca2 + units @ na2
            base = g1 * cb_sum + g2 * cb_diff
            coeff = g1[:, None] * nb_sum + g2[:, None] * nb_diff
            vals = sign * (base + sign * np.sqrt(np.einsum("ij,ij->i", coeff, coeff)))
            top = max(top, np.max(vals, initial=-np.inf, where=~np.isnan(vals)))
            cut = top - _TIE_RTOL * max(1.0, abs(top)) if np.isfinite(top) else top
            # cells kept from earlier chunks under a lower cut cannot win
            # the scalar re-check, so they need no second filter
            cand.append(np.flatnonzero(vals >= cut) + start * n_phi)
        return np.concatenate(cand)

    results = {}
    converged = True
    for sign, label in ((1.0, "max"), (-1.0, "min")):
        best_val = -np.inf
        best_angles = (0.0, 0.0)
        for idx in grid_candidates(sign):
            th, ph = thetas[idx // n_phi], phis[idx % n_phi]
            val = sign * extremum(_unit(th, ph), sign)
            if val > best_val:
                best_val = val
                best_angles = (th, ph)
        if refine:
            # SciPy is loaded here, on first use, so that importing the
            # package and its CLI costs only NumPy
            from scipy.optimize import minimize

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
