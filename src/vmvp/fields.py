"""Coulomb-gauge electromagnetic state, the formulas of E and B, and the oscillatory wave integrator.

The vector potential solves  eps^2 d_tt A - Lap A = eps P(j)  per Fourier
mode, an oscillator of frequency |k|/eps.  All of the wave quadrature lives
here.  `_rotation` forms the factors of the oscillator's exact rotation (the
one place they are written) and `_rotate` applies them, so the homogeneous
dynamics is exact for any dt.  `_duhamel_series` adds a sampled source by a
Filon-type quadrature of the Duhamel integral.  The k=0 mode has no
restoring force: d/dt <eps dA/dt> = <j>, while <A> itself is pinned to zero
(a pure gauge choice; no observable reads it).  eps is not part of the
state: the ensemble carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .spectral import (
    SpectralField,
    biot_savart,
    curl_coeffs,
    divergence,
    ik_vectors,
    l2_norm,
    mean,
    mode_norms,
    poisson_coeffs,
)

# tolerance of the normalization checks on initial field data (Gauss law, zero means)
NORMALIZATION_TOL = 1e-9


@lru_cache(maxsize=32)
def _wave_knorm(dim: int, cutoff: int) -> np.ndarray:
    """|k| per mode with the zero mode masked to 1, for divisions whose numerator vanishes at k = 0."""
    kn = mode_norms(dim, cutoff).copy()
    kn[kn == 0] = 1.0
    kn.flags.writeable = False
    return kn


def electric_coeffs(rho: np.ndarray, w: np.ndarray | None, dim: int) -> np.ndarray:
    """E = -grad phi - w with -Lap phi = rho - 1, for total densities rho (..., 1, J..).

    w = eps dA/dt (..., d, J..) for the full system, None for electrostatics;
    leading batch axes broadcast.  The one place E is formed from a density.
    """
    e = poisson_coeffs(rho, dim) * ik_vectors(dim, (rho.shape[-1] - 1) // 2) * -1.0
    return e if w is None else e - w


def magnetic_coeffs(a: np.ndarray, mean_b0: np.ndarray, dim: int) -> np.ndarray:
    """B = curl A + <B0> for vector potentials a (..., d, J..): a scalar (planar curl) for d=2, a vector for d=3."""
    b = curl_coeffs(a, dim)
    b[(..., slice(None)) + ((a.shape[-1] - 1) // 2,) * dim] += mean_b0
    return b


@dataclass(frozen=True)
class EMState:
    """Value-type electromagnetic state (A, eps*dA/dt) in Coulomb gauge.

    A is divergence-free with zero mean; the k=0 momentum of eps*dA/dt lives
    in eps_adot's zero mode and is exposed as mean_eps_adot.  mean_b0 carries
    the conserved spatial mean of B.  phi is a function of the density, so
    the state does not keep it: E takes the density (`electric_coeffs`).
    """

    a: SpectralField
    eps_adot: SpectralField
    mean_b0: np.ndarray
    mean_eps_adot0: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.dim

    @property
    def cutoff(self) -> int:
        return self.a.cutoff

    @property
    def mean_eps_adot(self) -> np.ndarray:
        return mean(self.eps_adot)


def init_em_state(rho0: SpectralField, j0_mean: np.ndarray, e0: SpectralField, b0: SpectralField) -> EMState:
    """Build the potential-formulation state from normalized field data.

    Validates the normalization conditions (Gauss constraint, zero-mean E
    and current; `biot_savart` refuses a B that is not solenoidal), then
    sets A from the vector-potential reconstruction of B and
    eps*dA/dt = -(E + grad phi), phi from the Poisson equation, which is the
    transverse part of -E (divergence-free and mean-zero once the
    preconditions hold, and the unique choice reproducing E exactly from
    E = -grad phi - eps dA/dt).
    """
    scale = max(np.abs(e0.coeffs).max(), np.abs(rho0.coeffs).max(), 1.0)
    gauss = divergence(e0).coeffs - (rho0.coeffs - SpectralField.constant(rho0.dim, rho0.cutoff, 1.0).coeffs)
    if np.abs(gauss).max() > NORMALIZATION_TOL * scale:
        raise ValidationError(
            f"Gauss constraint div E0 = rho0 - 1 violated (residual {np.abs(gauss).max():.3e})"
        )
    if np.abs(mean(e0)).max() > NORMALIZATION_TOL:
        raise ValidationError(f"mean of E0 must vanish (got {mean(e0)})")
    j0_mean = np.asarray(j0_mean, dtype=float)
    if np.abs(j0_mean).max() > NORMALIZATION_TOL:
        raise ValidationError(f"mean initial current must vanish (got {j0_mean})")

    a = biot_savart(b0)
    eps_adot = SpectralField(rho0.dim, rho0.cutoff, electric_coeffs(rho0.coeffs, None, rho0.dim)) - e0
    return EMState(a, eps_adot, mean(b0), mean(eps_adot))


def _rotation(t: float, eps: float, dim: int, cutoff: int):
    """Factors (cos, sin, -|k| sin, |k| masked) of the wave rotation over time t, per mode.

    Each mode k != 0 rotates by the angle |k| t / eps (t may be negative);
    k = 0 has no restoring force (angle 0).  `_rotate` applies them;
    `_duhamel_factors` forms them once per dt for the recurrence.
    """
    kn = mode_norms(dim, cutoff)
    theta = kn / eps * t
    c, s = np.cos(theta), np.sin(theta)
    return c, s, -kn * s, _wave_knorm(dim, cutoff)


def _rotate(a, w, t: float, eps: float, dim: int, cutoff: int):
    """Exact free evolution of the wave modes (A_hat, eps*dA_hat/dt) over time t.

    Each mode k != 0 rotates by the angle |k| t / eps (t may be negative);
    k = 0 has no restoring force and is left as it is.  a and w broadcast
    against the (J, ..., J) mode box.
    """
    c, s, kns, knm = _rotation(t, eps, dim, cutoff)
    return c * a + s * w / knm, kns * a + c * w


def _filon_weights(theta: np.ndarray, dt: float):
    """Linear-interpolation quadrature against sin/cos(omega(dt-tau)).

    Returns weights (w_ss, w_se, w_cs, w_ce) multiplying (S_j, S_{j+1}) in
    the sin- and cos-kernel integrals; exact in omega, order 2 in dt,
    reducing to the trapezoid rule as omega -> 0.
    """
    small = theta < 1e-3
    th = np.where(small, 1.0, theta)  # placeholders; small branch uses series
    s, c = np.sin(th), np.cos(th)
    with np.errstate(invalid="ignore", divide="ignore"):
        w_ss = np.where(small, theta * dt / 3.0 * (1 - theta ** 2 / 10.0), (s - th * c) * dt / th ** 2)
        w_se = np.where(small, theta * dt / 6.0 * (1 - theta ** 2 / 20.0), (th - s) * dt / th ** 2)
        w_cs = np.where(small, dt / 2.0 * (1 - theta ** 2 / 4.0), (s * th - (1 - c)) * dt / th ** 2)
        w_ce = np.where(small, dt / 2.0 * (1 - theta ** 2 / 12.0), (1 - c) * dt / th ** 2)
    return w_ss, w_se, w_cs, w_ce


@lru_cache(maxsize=32)
def _duhamel_factors(dt: float, eps: float, dim: int, cutoff: int):
    """The rotation over dt and the Filon weights of `_duhamel_series`, read-only, formed once per (dt, eps, d, K)."""
    rot = _rotation(dt, eps, dim, cutoff)
    weights = _filon_weights(mode_norms(dim, cutoff) / eps * dt, dt)
    for f in rot + weights:
        f.flags.writeable = False
    return rot, weights


def _duhamel_series(s_hat: np.ndarray, a0: np.ndarray, w0: np.ndarray, times: np.ndarray, eps: float, dim: int, cutoff: int):
    """A(t_j) and eps*dA/dt(t_j) for a sampled source, per mode, gauge-pinned k=0.

    One recurrence: each sample is the previous one rotated exactly over dt
    (the factors of `_rotation`, formed once per dt) plus a Filon-type local
    quadrature of the Duhamel integral over [t_j, t_{j+1}], so the
    oscillation costs no accuracy.  The local terms of every step are formed
    at once; the loop only rotates and adds them, in the float order of
    `_rotate`.
    """
    knm = _wave_knorm(dim, cutoff)
    (c, s, kns, _), (w_ss, w_se, w_cs, w_ce) = _duhamel_factors(float(times[1] - times[0]), eps, dim, cutoff)
    loc_a = (w_ss * s_hat[:-1] + w_se * s_hat[1:]) / knm
    loc_ws, loc_we = w_cs * s_hat[:-1], w_ce * s_hat[1:]
    a_out = np.empty(s_hat.shape, dtype=np.result_type(s_hat, a0, w0))
    w_out = np.empty_like(a_out)
    a_out[0], w_out[0] = a0, w0
    tmp = np.empty_like(a_out[0])
    for j in range(len(times) - 1):
        a, w, a1, w1 = a_out[j], w_out[j], a_out[j + 1], w_out[j + 1]
        np.multiply(c, a, out=a1)                   # c a + s w / |k|, then the local term
        np.multiply(s, w, out=tmp)
        tmp /= knm
        a1 += tmp
        a1 += loc_a[j]
        np.multiply(kns, a, out=w1)                 # -|k| s a + c w, then the local terms
        np.multiply(c, w, out=tmp)
        w1 += tmp
        w1 += loc_ws[j]
        w1 += loc_we[j]
    return a_out, w_out


def assemble_b(state: EMState) -> SpectralField:
    """B = curl A + <B0>; a scalar (planar curl) for d=2, a vector for d=3."""
    return SpectralField(state.dim, state.cutoff, magnetic_coeffs(state.a.coeffs, state.mean_b0, state.dim))


def field_energy(rho: SpectralField, em: EMState | None = None, b: SpectralField | None = None) -> float:
    """(1/2)(||E||_L2^2 + ||B||_L2^2) at total density rho, by Parseval over the cutoff box.

    With no EM state this is the electrostatic (1/2)||grad phi||_L2^2, with
    no B term.  b is the state's B, `assemble_b(em)`, for a caller that has
    formed it.
    """
    w = None if em is None else em.eps_adot.coeffs
    e2 = l2_norm(SpectralField(rho.dim, rho.cutoff, electric_coeffs(rho.coeffs, w, rho.dim))) ** 2
    if em is None:
        return 0.5 * e2
    b = assemble_b(em) if b is None else b
    return 0.5 * (e2 + l2_norm(b) ** 2)


def mean_momentum_ledger(state: EMState, integrated_mean_j: np.ndarray) -> float:
    """Residual of <eps dA/dt>(t) = int_0^t <j> ds + <eps dA/dt>(0)."""
    resid = state.mean_eps_adot - np.asarray(integrated_mean_j, dtype=float) - state.mean_eps_adot0
    return float(np.abs(resid).max())


def gauge_residuals(state: EMState) -> dict:
    """Coulomb-gauge health: relative mode-wise div A and |<A>|."""
    scale = max(np.abs(state.a.coeffs).max(), 1e-30)
    div_a = float(np.abs(divergence(state.a).coeffs).max() / scale)
    mean_a = float(np.abs(mean(state.a)).max())
    return {"div_a": div_a, "mean_a": mean_a}

