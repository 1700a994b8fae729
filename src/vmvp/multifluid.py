"""Phase-ensemble dynamics for the coupled fluid/field systems.

The kinetic distribution is represented as finitely many monokinetic phases
f(t,x,dxi) = sum_theta mu_theta rho_theta(t,x) delta(xi - xi_theta(t,x)).
Each phase obeys a continuity equation transported by the relativistic
velocity and a momentum equation forced by the shared electromagnetic field;
the electrostatic variant replaces v(xi) by xi and the force by -grad phi.

Two independent solution paths are provided and cross-validated:

* ``vm_step_full`` / ``vp_step_full``: classical 4-stage explicit stepping with the
  stiff vector-potential oscillators integrated in a rotating frame (the
  homogeneous wave dynamics is exact for any dt, the source enters at the
  full order of the stage scheme);
* ``ck_iterate``: the successive-approximation scheme in shrinking analytic
  norms, where each iterate integrates linear equations in time with
  coefficients and fields frozen at the previous iterate.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalAbort, ValidationError
from . import spectral as sp
from .fields import EMState, _duhamel_series, _rotate, electric_coeffs, field_energy, magnetic_coeffs
from .spectral import (
    AnalyticNormParams,
    SpectralField,
    analytic_norm,
    leray_coeffs,
    padded_grid_size,
    shrinking_norm,
)

logger = logging.getLogger(__name__)

GATE_BOUND = 1.0 / np.sqrt(2.0)
DEFAULT_GATE_DELTA = 1.1
POSITIVITY_TOL = -1e-8
# time slices per ck_iterate block; a block's grids take about 5 MB on ck2d, which holds peak memory
# down: 32 and 64 slices ran no faster and raised a ck2d pass's peak RSS by about 5 and 17 MB
CK_SLICE_BLOCK = 16
# ck_iterate measures iterate differences on every 4th time slice (and the last)
NORM_TIME_STRIDE = 4


@dataclass(frozen=True, eq=False)
class PhaseEnsemble:
    """M weighted monokinetic phases as stacked coefficient arrays; eps = 0 is electrostatic.

    mu (M,) holds the weights, rho (M, 1, J..) the densities and xi (M, d, J..)
    the momenta, with J = 2K+1 modes along each of the d axes; all three are
    kept as read-only copies, and every solver reads them as they are.
    eps in [0, 1] is the one eps of a state; `EMState` keeps none.
    """

    mu: np.ndarray
    rho: np.ndarray
    xi: np.ndarray
    eps: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        rho = np.array(self.rho, dtype=np.complex128)
        xi = np.array(self.xi, dtype=np.complex128)
        if mu.ndim != 1 or mu.size == 0:
            raise ValidationError("ensemble needs at least one phase")
        if not (mu > 0).all():
            raise ValidationError("phase weights must be positive")
        if not 0 <= self.eps <= 1:
            raise ValidationError(f"eps must be nonnegative and at most 1 (got {self.eps})")
        box = rho.shape[2:]  # d axes of one odd length J
        stacked = box and box == (box[0] | 1,) * len(box) and rho.shape[:2] == (mu.size, 1)
        if not stacked or xi.shape != mu.shape + (len(box),) + box:
            raise ValidationError(f"{mu.size} phases need rho (M, 1, J..), xi (M, d, J..), odd J: got {rho.shape}, {xi.shape}")
        for name, a in (("mu", mu), ("rho", rho), ("xi", xi)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        wsum = mu.sum()
        if not abs(wsum - 1.0) <= 1e-9:
            raise ValidationError(f"phase weights must sum to 1 (got {wsum})")
        msum = sum(mu * self.phase_masses())
        if not abs(msum - 1.0) <= 1e-9:
            raise ValidationError(f"total mass must be 1 for neutrality (got {msum})")

    @property
    def dim(self) -> int:
        return self.rho.ndim - 2

    @property
    def cutoff(self) -> int:
        return (self.rho.shape[-1] - 1) // 2

    def rho_total(self) -> SpectralField:
        return SpectralField(self.dim, self.cutoff, _phase_sum(self.mu, self.rho, self.dim))

    def phase_masses(self) -> np.ndarray:
        return self.rho[(slice(None), 0) + (self.cutoff,) * self.dim].real.copy()


def _phase_sum(mu: np.ndarray, c: np.ndarray, dim: int) -> np.ndarray:
    """sum_theta mu_theta c_theta over the phase axis of c (..., M, m, J..); leading batch axes stay."""
    return np.tensordot(mu, c, axes=(0, c.ndim - dim - 2))


def _sup_norm(c: np.ndarray, delta: float) -> float:
    """sup over phases and components of |c|_delta, for stacked coefficients c (M, m, J..)."""
    return analytic_norm(SpectralField(c.ndim - 2, (c.shape[-1] - 1) // 2, c.reshape((-1,) + c.shape[2:])), delta)


def _gate(eps: float, x: np.ndarray, delta: float, context: str | None = None) -> float:
    """eps * sup_theta |xi_theta|_delta of the stacked momenta x (M, d, J..).

    Given a context, a value above 1/sqrt(2) raises NumericalAbort.
    """
    g = eps * _sup_norm(x, delta)
    if context is not None and not g <= GATE_BOUND:
        raise NumericalAbort(f"validity gate violated{context}: eps*sup|xi|_delta = {g:.6g} > 1/sqrt(2)")
    return g


def gate_margin(ens: PhaseEnsemble, delta: float = DEFAULT_GATE_DELTA) -> float:
    """eps * sup_theta |xi_theta|_delta; must stay <= 1/sqrt(2)."""
    return _gate(ens.eps, ens.xi, delta)


def check_validity(ens: PhaseEnsemble, gate_delta: float = DEFAULT_GATE_DELTA, context: str = "") -> None:
    """Raise NumericalAbort when the gate or grid positivity fails."""
    _gate(ens.eps, ens.xi, gate_delta, context)
    mins = sp.to_grid(ens.rho, ens.dim).reshape(ens.mu.size, -1).min(axis=1)
    for i, m in enumerate(mins):
        if not m >= POSITIVITY_TOL:
            raise NumericalAbort(f"phase {i} density negative on the grid{context}: min = {m:.3e}")
        if m < 0:
            logger.debug("phase %d density undershoot %.3e (below abort threshold)", i, m)


# ----------------------------------------------------------------------
# relativistic velocity
# ----------------------------------------------------------------------

def _velocity_grid(xi: np.ndarray, eps: float, axis: int = 0) -> np.ndarray:
    """v(xi) = xi / sqrt(1 + eps^2 |xi|^2) pointwise; `axis` holds the components."""
    if eps == 0:
        return xi
    comps = np.moveaxis(xi, axis, 0)
    s = comps[0] * comps[0]  # the one scratch array: |xi|^2, then the denominator
    for c in comps[1:]:
        s += c * c
    s *= eps ** 2
    s += 1.0
    np.sqrt(s, out=s)
    return xi / np.expand_dims(s, axis)


# ----------------------------------------------------------------------
# fluid right-hand sides (dealiased, grid-based)
# ----------------------------------------------------------------------

def _phase_flux(rho_c: np.ndarray, xi_c: np.ndarray, eps: float, dim: int, cutoff: int):
    """The transport half of the fluid kernel: (drho, flux, v_g, adv_g).

    rho_c (..., 1, J..) and xi_c (..., d, J..) may carry leading (time slice,
    phase) axes.  flux (..., d, J..) holds the coefficients of v(xi) * rho,
    each phase's unweighted contribution to the current (the analysis is
    linear, so their mu-weighted sum is the total current), and drho =
    -div flux.  v_g and adv_g (d, ..., n..) hold v(xi) and (v . grad) xi on
    the padded grid, component axis first, for `_phase_force`.  rho goes
    through one synthesis and xi through one with its gradient (the
    derivative matrices), the flux through one analysis; every pointwise
    product runs on contiguous slabs.  Each field is transformed on its own,
    so a batched call returns exactly what per-phase calls return.
    """
    n = padded_grid_size(cutoff)
    ax = -(dim + 1)  # the component axis of the arguments and results
    rho_g = sp.to_grid(np.moveaxis(rho_c, ax, 0)[0], dim, n)
    xi_g = sp.to_grid(np.moveaxis(xi_c, ax, 0), dim, n, gradient=True)   # xi_g[0][b] = xi_b, xi_g[1 + a][b] = d_a xi_b
    v_g = _velocity_grid(xi_g[0], eps)
    j_g = v_g * rho_g
    adv_g = np.multiply(v_g[0], xi_g[1])                                   # (v . grad) xi
    for a in range(1, dim):
        adv_g += v_g[a] * xi_g[1 + a]
    del xi_g
    flux = np.moveaxis(sp.from_grid(j_g, dim, cutoff), 0, ax)
    drho = -(sp.ik_vectors(dim, cutoff) * flux).sum(axis=ax, keepdims=True)
    if not np.isfinite(drho).all():
        raise NumericalAbort("non-finite values in phase right-hand side")
    return drho, flux, v_g, adv_g


def _phase_force(v_g: np.ndarray, adv_g: np.ndarray, b_grid: np.ndarray | None, e_c: np.ndarray, eps: float, dim: int, cutoff: int):
    """The momentum half of the fluid kernel: dxi = -(v . grad) xi + eps v x B + E.

    v_g and adv_g come from `_phase_flux`; b_grid (components first) and the
    coefficients e_c (..., d, J..) broadcast against them.  The force is
    formed on the grid and analysed once; neither input is changed.
    """
    if b_grid is None:
        force = np.negative(adv_g)
    else:
        force = sp.cross(v_g, b_grid, dim)
        force *= eps
        force -= adv_g
    dxi = np.moveaxis(sp.from_grid(force, dim, cutoff), 0, -(dim + 1)) + e_c
    if not np.isfinite(dxi).all():
        raise NumericalAbort("non-finite values in phase right-hand side")
    return dxi


def _phase_rhs_arrays(
    rho_c: np.ndarray,
    xi_c: np.ndarray,
    e_c: np.ndarray,
    b_grid: np.ndarray | None,
    eps: float,
    dim: int,
    cutoff: int,
):
    """RHS coefficients of the phases, their current densities and the velocity grid.

    rho_c (..., 1, J..) and xi_c (..., d, J..) may carry leading (time slice,
    phase) axes; e_c and b_grid (..., 1 or d, n..) broadcast against them.
    Returns (drho, dxi, flux, v_g): `_phase_flux` then `_phase_force`, so
    the flux and the whole momentum force take one analysis each.
    """
    drho, flux, v_g, adv_g = _phase_flux(rho_c, xi_c, eps, dim, cutoff)
    b = None if b_grid is None else np.moveaxis(b_grid, -(dim + 1), 0)
    return drho, _phase_force(v_g, adv_g, b, e_c, eps, dim, cutoff), flux, v_g


# ----------------------------------------------------------------------
# time stepping (classical 4-stage scheme, wave modes in a rotating frame)
# ----------------------------------------------------------------------

RK4_NODES = (0.0, 0.5, 0.5, 1.0)
RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def rk4_step(y0: tuple, slope, dt: float) -> tuple:
    """One classical 4-stage step of the arrays y0.

    slope(i, ys) returns one slope per array at stage i (time offset
    RK4_NODES[i] * dt); stage i > 0 is ys = y0 + dt * c_i * k_{i-1}, and the
    update is y0 + dt * sum_i w_i k_i.
    """
    ks = []
    for i, ci in enumerate(RK4_NODES):
        ys = y0 if i == 0 else tuple(y + dt * ci * k for y, k in zip(y0, ks[-1]))
        ks.append(slope(i, ys))
    return tuple(y + dt * sum(w * k for w, k in zip(RK4_WEIGHTS, k_y)) for y, k_y in zip(y0, zip(*ks)))


@dataclass(frozen=True)
class StepResult:
    """One fluid step of either system, with what the particle pushes reuse."""

    ensemble: PhaseEnsemble
    em: EMState | None           # None for the electrostatic system
    stage_fields: tuple          # ((E, B) at each of the 4 stages); B is None at eps = 0
    mean_j_increment: np.ndarray  # same quadrature as the step itself; zero at eps = 0


def vm_step_full(ens: PhaseEnsemble, em: EMState, dt: float, gate_delta: float = DEFAULT_GATE_DELTA) -> StepResult:
    """One coupled fluid/field step of size dt at eps > 0 (eps = 0 is vp_step_full).

    Fluid unknowns take a classical 4-stage explicit step with E and B
    re-assembled at every stage, the gate checked at each; the wave modes are
    advanced in the exactly rotating frame so the update is uniformly accurate
    in eps, driven by the Leray-projected current, so A leaves the step as
    divergence-free as the step makes it.  Returns the stage fields so passive
    particle integrators can reuse the identical stage values, plus the
    mean-current integral taken with the same stage quadrature (the k=0
    momentum ledger is then exact by construction).
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if ens.eps == 0:
        raise ValidationError("vm_step_full needs eps > 0; the eps = 0 system is vp_step_full")
    if em is None:
        raise ValidationError("relativistic stepping requires an EMState")
    check_validity(ens, gate_delta, context=" at step start")
    dim, cutoff, eps = ens.dim, ens.cutoff, ens.eps
    mus = ens.mu
    n = padded_grid_size(cutoff)
    stage_fields = []

    def slope(i, ys):
        rs, xs, as_, ws, _ = ys
        ci = RK4_NODES[i]
        if i > 0:
            _gate(eps, xs, gate_delta, f" at stage {i + 1}")
        a_hat, w_hat = _rotate(as_, ws, ci * dt, eps, dim, cutoff)  # rotating frame -> lab frame

        e_hat = electric_coeffs(_phase_sum(mus, rs, dim), w_hat, dim)
        b_hat = magnetic_coeffs(a_hat, em.mean_b0, dim)
        stage_fields.append((SpectralField(dim, cutoff, e_hat), SpectralField(dim, cutoff, b_hat)))

        dr, dx, flux, _ = _phase_rhs_arrays(rs, xs, e_hat, sp.to_grid(b_hat, dim, n), eps, dim, cutoff)
        j_hat = _phase_sum(mus, flux, dim)
        # the divergence-free source, pulled back to the rotating frame
        ka, kw = _rotate(0.0, leray_coeffs(j_hat, dim), -ci * dt, eps, dim, cutoff)
        return dr, dx, ka, kw, j_hat[(slice(None),) + (cutoff,) * dim].real  # the mean current

    y0 = (ens.rho, ens.xi, em.a.coeffs, em.eps_adot.coeffs, np.zeros(dim))
    r1, x1, a1, w1, mean_j_inc = rk4_step(y0, slope, dt)
    a_new, w_new = _rotate(a1, w1, dt, eps, dim, cutoff)

    em_new = replace(em, a=SpectralField(dim, cutoff, a_new), eps_adot=SpectralField(dim, cutoff, w_new))
    return StepResult(replace(ens, rho=r1, xi=x1), em_new, tuple(stage_fields), mean_j_inc)


def vp_step_full(ens: PhaseEnsemble, dt: float) -> StepResult:
    """The eps = 0 system on vm_step_full's stages: v(xi) = xi, force -grad phi re-solved each stage."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if ens.eps != 0:
        raise ValidationError("vp_step_full expects an eps = 0 ensemble")
    check_validity(ens, context=" at step start")
    dim, cutoff = ens.dim, ens.cutoff
    mus = ens.mu
    stage_fields = []

    def slope(i, ys):
        rs, xs = ys
        e_hat = electric_coeffs(_phase_sum(mus, rs, dim), None, dim)
        stage_fields.append((SpectralField(dim, cutoff, e_hat), None))
        dr, dx, _, _ = _phase_rhs_arrays(rs, xs, e_hat, None, 0.0, dim, cutoff)
        return dr, dx

    r1, x1 = rk4_step((ens.rho, ens.xi), slope, dt)
    return StepResult(replace(ens, rho=r1, xi=x1), None, tuple(stage_fields), np.zeros(dim))


# ----------------------------------------------------------------------
# moments, observables, energy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Moments:
    rho_grid: np.ndarray          # total density on the padded grid, (1, n, .., n)
    j_mean: np.ndarray            # grid mean of the total current, one value per component
    m_alpha_sup: float
    fourth_moment_l1: float
    kinetic_energy: float


def moments(ens: PhaseEnsemble, alpha: float = 1.0) -> Moments:
    """Macroscopic density, mean current, sup of m_alpha, L1 fourth moment and kinetic energy.

    The one grid pass over a state: every phase's rho and xi come from one
    synthesis.  The kinetic energy is sum_theta mu int e(xi_theta) rho_theta dx
    with the relativistic e(xi).
    """
    g = sp.to_grid(np.concatenate([ens.rho, ens.xi], axis=1), ens.dim)
    rg, xg, mu = g[:, :1], g[:, 1:], ens.mu.reshape((-1,) + (1,) * (ens.dim + 1))
    vg = _velocity_grid(xg, ens.eps, axis=1)
    speed = np.sqrt((vg ** 2).sum(axis=1, keepdims=True))
    xi2 = (xg ** 2).sum(axis=1, keepdims=True)
    totals = (mu * np.concatenate([rg, vg * rg, speed ** alpha * rg, xi2 ** 2 * rg], axis=1)).sum(axis=0)
    rho_tot, j_tot, malpha, fourth = np.split(totals, [1, 1 + ens.dim, 2 + ens.dim])
    if ens.eps == 0:
        e = 0.5 * xi2
    else:
        e = (np.sqrt(1.0 + ens.eps ** 2 * xi2) - 1.0) / ens.eps ** 2
    return Moments(
        rho_grid=rho_tot,
        j_mean=j_tot.reshape(ens.dim, -1).mean(axis=1),
        m_alpha_sup=float(malpha.max()),
        fourth_moment_l1=float(np.abs(fourth).mean()),
        kinetic_energy=float((mu.ravel() * (e * rg).reshape(mu.size, -1).mean(axis=1)).sum()),
    )


def total_energy(ens: PhaseEnsemble, em: EMState | None = None) -> float:
    """Kinetic plus field energy (electrostatic energy only when em is None)."""
    kin = moments(ens).kinetic_energy
    return kin + field_energy(ens.rho_total(), em)


# ----------------------------------------------------------------------
# successive approximations in shrinking analytic norms
# ----------------------------------------------------------------------

@dataclass
class CKIterationReport:
    """Contraction record of the successive-approximation scheme."""

    n_iters: int
    diffs_rho: list
    diffs_xi: list
    ratios: list
    params: AnalyticNormParams
    horizon: float
    diverged: bool
    c0_measured: float
    rho_traj: np.ndarray = field(repr=False, default=None)
    xi_traj: np.ndarray = field(repr=False, default=None)

    @property
    def c1_declared(self) -> float:
        return 4.0 * self.c0_measured

    @property
    def c2_declared(self) -> float:
        return 8.0 * self.c1_declared


def _cumint(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of samples dx apart along the leading (time) axis, 0 at the first.

    scipy's equal-interval cumulative_simpson (initial=0), done in place on
    the float64 view, so a complex array's real and imaginary parts run the
    same float operations as two scipy calls, one per part, would.  Interval
    i takes dx/3 (5 f_i/4 + 2 f_{i+1} - f_{i+2}/4) for even i and the
    mirrored dx/3 (5 f_{i+1}/4 + 2 f_i - f_{i-1}/4) for odd i and for the
    last interval; a running sum from 0 follows, one row add per sample:
    the floats of a cumsum along the axis, without its column-by-column
    walk (scipy adds its initial 0 after the sum; both give the same
    floats, signed zeros included).
    Below 3 samples the trapezoid rule dx (f_i + f_{i+1}) / 2 replaces it,
    as in scipy.
    """
    y = np.ascontiguousarray(y, dtype=np.result_type(y, float))
    out = np.empty_like(y)
    n = y.shape[0]
    # one row of float64 per time sample, a complex entry's two parts side by side
    f, o = y.reshape(n, -1).view(float), out.reshape(n, -1).view(float)
    o[0] = 0.0
    if n < 3:
        np.add(f[1:], f[:-1], out=o[1:])
        o[1:] *= dx
        o[1:] /= 2.0
    else:
        d3 = dx / 3
        tmp = np.empty_like(f[: (n - 1) // 2])

        def simpson(dst, near, mid, far):
            t = tmp[: dst.shape[0]]
            np.multiply(near, 5, out=dst)
            dst /= 4
            np.multiply(mid, 2, out=t)
            dst += t
            np.divide(far, 4, out=t)
            dst -= t
            dst *= d3

        simpson(o[1 : n - 1 : 2], f[0 : n - 2 : 2], f[1 : n - 1 : 2], f[2:n:2])  # even intervals
        simpson(o[2:n:2], f[2:n:2], f[1 : n - 1 : 2], f[0 : n - 2 : 2])          # odd intervals
        simpson(o[n - 1 :], f[n - 1 :], f[n - 2 : n - 1], f[n - 3 : n - 2])        # the last one
    for i in range(1, n):
        o[i] += o[i - 1]
    return out


def ck_iterate(
    init: PhaseEnsemble,
    em0: EMState | None,
    p: AnalyticNormParams,
    n_max: int = 10,
    n_time: int = 256,
) -> CKIterationReport:
    """Run the successive-approximation scheme on [0, eta*(delta0 - delta)].

    Iterate n+1 solves linear transport/forcing equations in time with
    velocity, density and fields all frozen at iterate n; the potentials are
    rebuilt from iterate n through the Poisson solve and the oscillatory
    Duhamel formula.  Records sup_theta shrinking-norm differences of
    consecutive iterates; growth over 3 consecutive iterations flags
    divergence instead of silently accepting it.  An iteration is one pass
    over blocks of CK_SLICE_BLOCK time slices in time order, the wave state
    carried from block to block, so only the iterates, their time
    derivatives and A span the whole time grid.
    """
    if p.delta <= 1.0:
        raise ValidationError("the working radius p.delta must exceed 1")
    eps = init.eps
    dim, cutoff = init.dim, init.cutoff
    check_validity(init, p.delta, context=" in initial data")
    if eps > 0 and em0 is None:
        raise ValidationError("relativistic iteration requires an EMState")

    horizon = p.eta * (p.delta0 - p.delta)
    times = np.linspace(0.0, horizon, n_time + 1)
    dt = times[1] - times[0]
    rho0, xi0, mus = init.rho, init.xi, init.mu
    mode_shape = rho0.shape[2:]
    c0 = max(_sup_norm(rho0, p.delta0), _sup_norm(xi0, p.delta0))

    # iterate 0: frozen initial data
    rho = np.broadcast_to(rho0, (n_time + 1,) + rho0.shape).copy()
    xi = np.broadcast_to(xi0, (n_time + 1,) + xi0.shape).copy()

    ax = -(dim + 1)  # the component axis
    # A along the time grid: of the wave state, only A is kept for every slice
    a_traj = np.empty((n_time + 1, dim) + mode_shape, dtype=complex) if eps > 0 else None

    diffs_rho, diffs_xi, ratios = [], [], []
    diverged = False
    grow_streak = 0
    norm_idx = list(range(0, n_time + 1, NORM_TIME_STRIDE))
    if norm_idx[-1] != n_time:
        norm_idx.append(n_time)

    for it in range(1, n_max + 1):
        # frozen-coefficient sources along the previous iterate, one block of
        # time slices at a time in time order, the wave state carried across
        drho = np.empty_like(rho)
        dxi = np.empty_like(xi)
        if eps > 0:
            a_traj[0] = em0.a.coeffs
            w_last = em0.eps_adot.coeffs
        # iterate 0 is the initial data at every slice, and the batched kernel
        # equals per-slice calls bit for bit, so iteration 1 transports one
        # slice and broadcasts it
        first = _phase_flux(rho0[None], xi0[None], eps, dim, cutoff) if it == 1 else None
        for lo in range(0, n_time + 1, CK_SLICE_BLOCK):
            blk = slice(lo, lo + CK_SLICE_BLOCK)
            e_hat = electric_coeffs(_phase_sum(mus, rho[blk], dim), None, dim)
            drho[blk], flux, v_g, adv_g = first or _phase_flux(rho[blk], xi[blk], eps, dim, cutoff)
            b_g = None
            if eps > 0:
                # A over the block: the Duhamel recurrence from the last sample
                # before it (A(0) for the first block).  The recurrence does not
                # depend on where it starts, so it runs on times[:m], whose
                # spacing is dt bit for bit.
                s_hat = leray_coeffs(_phase_sum(mus, flux, dim), dim)
                s_hat = np.broadcast_to(s_hat, rho[blk].shape[:1] + s_hat.shape[1:])  # iteration 1: one slice for all
                if lo:
                    s_hat = np.concatenate([s_last[None], s_hat])
                s_last = s_hat[-1]
                win = slice(max(lo - 1, 0), blk.stop)
                if len(s_hat) > 1:  # only a first block of one slice has no interval
                    a_traj[win], w_seg = _duhamel_series(
                        s_hat, a_traj[win.start], w_last, times[: len(s_hat)], eps, dim, cutoff
                    )
                    w_last = w_seg[-1]
                # B = curl A + <B0> on the grid, components first, for the block's Lorentz force
                b_g = np.moveaxis(sp.to_grid(magnetic_coeffs(a_traj[blk], em0.mean_b0, dim), dim), ax, 0)[:, :, None]
            dxi[blk] = _phase_force(v_g, adv_g, b_g, np.expand_dims(e_hat, 1), eps, dim, cutoff)
            del flux, v_g, adv_g, b_g  # so the next block's kernel call runs without this block's grids
        del first

        # each derivative is dropped once integrated, so the peak holds one at a time
        rho_new = _cumint(drho, dt)
        rho_new += rho0
        del drho
        xi_new = _cumint(dxi, dt)
        xi_new += xi0
        del dxi
        if eps > 0:
            # the -eps dA/dt contribution integrates exactly to -eps (A(t) - A(0))
            a_traj -= em0.a.coeffs
            a_traj *= eps
            xi_new -= a_traj[:, None]

        d_rho = _traj_diff_norm(rho_new[norm_idx] - rho[norm_idx], times[norm_idx], p)
        d_xi = _traj_diff_norm(xi_new[norm_idx] - xi[norm_idx], times[norm_idx], p)
        diffs_rho.append(d_rho)
        diffs_xi.append(d_xi)
        if len(diffs_rho) >= 2:
            prev = max(diffs_rho[-2], diffs_xi[-2])
            cur = max(d_rho, d_xi)
            ratios.append(0.0 if prev == 0.0 else cur / prev)
            grow_streak = grow_streak + 1 if cur > prev else 0
            if grow_streak >= 3:
                diverged = True
        rho, xi = rho_new, xi_new
        if diverged:
            logger.warning("successive approximations diverging after %d iterations", it)
            break
        if max(d_rho, d_xi) == 0.0:
            break

    return CKIterationReport(
        n_iters=len(diffs_rho),
        diffs_rho=diffs_rho,
        diffs_xi=diffs_xi,
        ratios=ratios,
        params=p,
        horizon=horizon,
        diverged=diverged,
        c0_measured=c0,
        rho_traj=rho,
        xi_traj=xi,
    )


def _traj_diff_norm(diff, times, p) -> float:
    """sup over phases of the shrinking norm of a difference trajectory sampled at `times`."""
    out = 0.0
    for pph in range(diff.shape[1]):
        out = max(out, shrinking_norm(times, diff[:, pph], p))
    return out


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def save_ensemble(ens: PhaseEnsemble, path) -> None:
    """Header JSON (phase table), then one (M, 1 + d, J..) block: per phase rho, then xi."""
    header = {
        "format": "vmvp-ensemble-v1",
        "eps": ens.eps,
        "dim": ens.dim,
        "cutoff": ens.cutoff,
        "phases": [{"id": i, "mu": float(mu)} for i, mu in enumerate(ens.mu)],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(np.concatenate([ens.rho, ens.xi], axis=1).tobytes())


def load_ensemble(path) -> PhaseEnsemble:
    header, raw = sp.read_binary(path, "vmvp-ensemble-v1", counts=("dim", "cutoff"), numbers=("eps",))
    dim, cutoff, entries = header["dim"], header["cutoff"], header.get("phases")
    if not isinstance(entries, list) or not entries or not all(
        isinstance(e, dict) and isinstance(e.get("mu"), (int, float)) and not isinstance(e["mu"], bool) and 0 < e["mu"] <= 1
        for e in entries
    ):
        raise ValidationError(f"{path}: header field 'phases' must list objects with a 'mu' in (0, 1]")
    if dim > len(raw):  # a phase takes at least 16 (1 + dim) bytes
        raise ValidationError(f"{path}: {len(raw)} data bytes cannot hold a phase of dim {dim}")
    j = 2 * cutoff + 1
    sp.expect_bytes(path, raw, 16 * len(entries) * (1 + dim) * j ** dim)
    try:
        blocks = np.frombuffer(raw, dtype=complex).reshape((len(entries), 1 + dim) + (j,) * dim)
    except ValueError as exc:  # more axes than numpy holds
        raise ValidationError(f"{path}: fields of dim {dim} do not fit in an array: {exc}") from exc
    return PhaseEnsemble([e["mu"] for e in entries], blocks[:, :1], blocks[:, 1:], header["eps"])
