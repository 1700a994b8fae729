"""Reference implementations that only the tests use.

Each is a slow or narrow counterpart of a library path (direct summation,
brute-force assignment, per-phase right-hand sides) or a diagnostic of
fluid/particle agreement; the tests check the library against them.
refuse_dense pins which assignment path answers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.optimize import linear_sum_assignment

from vmvp import transport
from vmvp.errors import ValidationError
from vmvp.fields import EMState, _filon_weights, _rotate, _wave_knorm
from vmvp.lagrangian import ParticleCloud
from vmvp.multifluid import CKIterationReport, PhaseEnsemble, _phase_rhs_arrays, check_validity
from vmvp.spectral import SpectralField, derivative, mode_norms, mode_vectors, padded_grid_size, stack
from vmvp.transport import TWO_PI, EmpiricalMeasure, cost_matrix_sq


def worker_count(default: int | None = None) -> int:
    """Process-level parallelism: VMVP_WORKERS wins, else the given default."""
    env = os.environ.get("VMVP_WORKERS")
    if env:
        return max(1, int(env))
    return default if default is not None else 1


# ----------------------------------------------------------------------
# spectral
# ----------------------------------------------------------------------

def evaluate_at_naive(f: SpectralField, points: np.ndarray) -> np.ndarray:
    """Reference direct summation (slow); used to validate evaluate_at."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    k = mode_vectors(f.dim, f.cutoff).reshape(f.dim, -1)
    phase = np.exp(1j * pts @ k)                               # (n, modes)
    return (phase @ f.coeffs.reshape(f.components, -1).T).real


def gradient_stack(f: SpectralField) -> SpectralField:
    """All first derivatives of all components stacked along the component axis."""
    comps = [SpectralField(f.dim, f.cutoff, f.coeffs[c : c + 1]) for c in range(f.components)]
    parts = [derivative(g, a + 1) for g in comps for a in range(f.dim)]
    return stack(parts)


# ----------------------------------------------------------------------
# fields and fluids
# ----------------------------------------------------------------------

def mode_oscillation_energy(state: EMState) -> np.ndarray:
    """Per-mode invariant |A_hat|^2 + |eps dA_hat|^2 / |k|^2 of the free dynamics."""
    kn = _wave_knorm(state.dim, state.cutoff)
    return (np.abs(state.a.coeffs) ** 2 + np.abs(state.eps_adot.coeffs) ** 2 / kn ** 2).sum(axis=0)


def vm_rhs(ens: PhaseEnsemble, e: SpectralField, b: SpectralField | None):
    """Per-phase (drho/dt, dxi/dt) for the relativistic system at frozen fields."""
    check_validity(ens)
    b_grid = b.to_grid(padded_grid_size(ens.cutoff)) if b is not None else None
    drho, dxi, _, _ = _phase_rhs_arrays(ens.rho, ens.xi, e.coeffs, b_grid, ens.eps, ens.dim, ens.cutoff)
    return [
        (SpectralField(ens.dim, ens.cutoff, dr), SpectralField(ens.dim, ens.cutoff, dx))
        for dr, dx in zip(drho, dxi)
    ]


def cumint_scipy(y: np.ndarray, dx: float) -> np.ndarray:
    """multifluid._cumint as scipy's cumulative_simpson along the leading axis, initial 0.

    scipy drops imaginary parts, so a complex input goes through two calls,
    one per part.
    """
    if np.iscomplexobj(y):
        return cumulative_simpson(y.real, dx=dx, axis=0, initial=0.0) + 1j * cumulative_simpson(
            y.imag, dx=dx, axis=0, initial=0.0
        )
    return cumulative_simpson(y, dx=dx, axis=0, initial=0.0)


def duhamel_series_stepwise(s_hat, a0, w0, times, eps, dim, cutoff):
    """multifluid._duhamel_series with the rotation (cos/sin included) formed anew by _rotate at every step."""
    knm = _wave_knorm(dim, cutoff)
    dt = times[1] - times[0]
    w_ss, w_se, w_cs, w_ce = _filon_weights(mode_norms(dim, cutoff) / eps * dt, dt)
    a_out = np.empty_like(s_hat)
    w_out = np.empty_like(s_hat)
    a_out[0], w_out[0] = a0, w0
    for j in range(len(times) - 1):
        a, w = _rotate(a_out[j], w_out[j], dt, eps, dim, cutoff)
        a_out[j + 1] = a + (w_ss * s_hat[j] + w_se * s_hat[j + 1]) / knm
        w_out[j + 1] = w + w_cs * s_hat[j] + w_ce * s_hat[j + 1]
    return a_out, w_out


def ratios_below(rep: CKIterationReport, factor: float, start: int = 2) -> bool:
    tail = rep.ratios[start - 1 :]
    return bool(tail) and all(r <= factor for r in tail)


# ----------------------------------------------------------------------
# particles against the fluid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    density_rms: float
    residual_max: float
    residual_rms: float


def consistency_check(cloud: ParticleCloud, ens: PhaseEnsemble, system: str = "vm", bins: int = 16) -> ConsistencyReport:
    """Compare particle statistics against the fluid state at the same time.

    density_rms: RMS over cells of (histogram density - exact cell-averaged
    fluid density).  residual_*: per-sample monokinetic residual
    |Xi - xi_theta(X)| for the phase each sample was drawn from.
    """
    if system == "vm":
        x, xi = cloud.x_vm, cloud.xi_vm
    elif system == "vp":
        x, xi = cloud.x_vp, cloud.xi_vp
    else:
        raise ValidationError("system must be 'vm' or 'vp'")
    d = cloud.dim

    rho = ens.rho_total()
    h = TWO_PI / bins
    # exact cell averages: damp each mode by prod_a sinc(k_a h / 2)
    k = mode_vectors(d, rho.cutoff)
    damp = np.ones(k.shape[1:])
    for a in range(d):
        damp = damp * np.sinc(k[a] * h / TWO_PI)
    cell_avg = SpectralField(d, rho.cutoff, rho.coeffs * damp)
    centers_1d = (np.arange(bins) + 0.5) * h
    mesh = np.meshgrid(*([centers_1d] * d), indexing="ij")
    centers = np.column_stack([m.ravel() for m in mesh])
    fluid = cell_avg.evaluate_at(centers)[:, 0]

    cells = np.floor(x / h).astype(int) % bins
    flat = np.ravel_multi_index(tuple(cells.T), (bins,) * d)
    counts = np.bincount(flat, weights=cloud.weights, minlength=bins ** d)
    emp = counts * bins ** d  # cell fraction -> density w.r.t. normalized measure
    density_rms = float(np.sqrt(((emp - fluid) ** 2).mean()))

    resid = np.empty(cloud.size)
    for p, xi_p in enumerate(ens.xi):
        idx = np.flatnonzero(cloud.phase_idx == p)
        if idx.size == 0:
            continue
        target = SpectralField(d, ens.cutoff, xi_p).evaluate_at(x[idx])
        resid[idx] = np.sqrt(((xi[idx] - target) ** 2).sum(axis=1))
    return ConsistencyReport(
        density_rms=density_rms,
        residual_max=float(resid.max()),
        residual_rms=float(np.sqrt((resid ** 2).mean())),
    )


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------

def w2_exact_brute(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Factorial-time oracle over all permutations (N <= 9)."""
    if not (mu.is_uniform() and nu.is_uniform() and mu.size == nu.size):
        raise ValidationError("brute-force oracle needs equal-size uniform clouds")
    cost = cost_matrix_sq(mu, nu)
    n = mu.size
    idx = np.arange(n)
    best = np.inf
    for perm in permutations(range(n)):
        best = min(best, cost[idx, list(perm)].sum())
    return float(np.sqrt(best / n))


def torus_wrap(delta: np.ndarray) -> np.ndarray:
    """Signed geodesic representative of a coordinate difference, in (-pi, pi]: the round fold."""
    return delta - TWO_PI * np.round(delta / TWO_PI)


def take(m: EmpiricalMeasure, idx: np.ndarray) -> EmpiricalMeasure:
    """The uniform cloud of m's points at idx, repeats included (a bootstrap gather)."""
    return EmpiricalMeasure.uniform(m.x[idx], None if m.xi is None else m.xi[idx])


def squared_costs_masked(mu: EmpiricalMeasure, nu: EmpiricalMeasure, outer: bool) -> np.ndarray:
    """transport._squared_costs with the masked fold: 2pi - |dx| only where |dx| > pi, no row blocks."""
    def sides(a, b):
        return (a[:, None], b[None, :]) if outer else (a, b)

    shape = (mu.size, nu.size) if outer else (mu.size,)
    d, diff = np.empty(shape), np.empty(shape)
    for a in range(mu.x.shape[1]):
        out = d if a == 0 else diff
        np.subtract(*sides(mu.x[:, a] % TWO_PI, nu.x[:, a] % TWO_PI), out=out)
        np.abs(out, out=out)
        np.subtract(TWO_PI, out, out=out, where=out > np.pi)
        np.multiply(out, out, out=out)
        if a > 0:
            d += diff
    if mu.xi is not None:
        for a in range(mu.xi.shape[1]):
            np.subtract(*sides(mu.xi[:, a], nu.xi[:, a]), out=diff)
            np.multiply(diff, diff, out=diff)
            d += diff
    return d


def w2_from_cost_plain(cost: np.ndarray) -> float:
    """W2 from a square cost matrix by the dense solver on cost as it is."""
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def refuse_dense(monkeypatch):
    """Make transport's dense path raise, so that only the certified sparse path can answer."""
    def refuse(*args):
        raise AssertionError("the dense solver ran")

    monkeypatch.setattr(transport, "linear_sum_assignment", refuse)
    monkeypatch.setattr(transport, "cost_matrix_sq", refuse)


def subsampled_w2_plain(pairing, n_sub: int, rng: np.random.Generator, n_boot: int):
    """harness._subsampled_w2 on its assignment path, solved by w2_from_cost_plain.

    One cost matrix for the subsample; each bootstrap replicate solves a
    row/column gather of it, repeated indices included.
    """
    n = pairing.x_vp.shape[0]
    idx = rng.choice(n, size=min(n_sub, n), replace=False)
    cost = cost_matrix_sq(
        EmpiricalMeasure.uniform(pairing.x_vp[idx], pairing.xi_vp[idx]),
        EmpiricalMeasure.uniform(pairing.x_vm[idx], pairing.xi_vm[idx]),
    )
    pos = np.empty(n, dtype=np.intp)
    pos[idx] = np.arange(idx.size)
    reps = np.empty(n_boot)
    for b in range(n_boot):
        take = pos[rng.choice(idx, size=idx.size, replace=True)]
        reps[b] = w2_from_cost_plain(cost[np.ix_(take, take)]) ** 2
    return w2_from_cost_plain(cost), float(reps.std(ddof=1))


def circular_w2_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared W2 between uniform empirical measures on the circle [0, 2pi).

    The optimal assignment between cyclically sorted sequences is one of the
    n cyclic shifts; each candidate pairs by geodesic displacement.
    """
    a = np.sort(np.asarray(a, dtype=float) % TWO_PI)
    b = np.sort(np.asarray(b, dtype=float) % TWO_PI)
    n = a.size
    if b.size != n:
        raise ValidationError("circular rule needs equal-size clouds")
    bb = np.concatenate([b, b])
    windows = np.lib.stride_tricks.sliding_window_view(bb, n)[:n]  # row k: b shifted by k
    diff = torus_wrap(a[None, :] - windows)
    return float((diff ** 2).mean(axis=1).min())


def circular_w2_sq_brute(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    best = np.inf
    for perm in permutations(range(n)):
        d = torus_wrap(a - b[list(perm)])
        best = min(best, float((d ** 2).mean()))
    return best
