"""Characteristic flows of both systems launched from shared initial samples.

A cloud carries one set of initial phase-space samples and two trajectory
families: the electrostatic flow (Xdot = Xi, Xidot = -grad phi(X)) and the
relativistic flow (Xdot = v(Xi), Xidot = E + eps v x B).  The index pairing
between the two families is never reshuffled; it realizes the coupling whose
mean squared gap the transport module turns into a Wasserstein bound.

Forces are trigonometric sums at particle positions (no grid interpolation),
taken over each field's numerical support: `SpectralField.evaluate_at` leaves
out the outer modes that carry at most u = 2^-53 of the l1 mass of the
stacked (E, B), so with eps |v| < 1 a force moves by at most
2 u (|E|_l1 + |B|_l1).  Both steppers take the stage fields of a fluid
step's record (`multifluid.StepResult.stage_fields`, the (E, B) pair at each
of the four stages), so the combined fluid+particle update is one classical
4-stage step of the joint system (particles are passive and do not feed back
currents).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .multifluid import PhaseEnsemble, _velocity_grid, rk4_step
from .spectral import SpectralField, cross, expect_bytes, read_binary, stack
from .transport import rejection_sample_positions, wrap_positions

@dataclass(frozen=True)
class ParticleCloud:
    """Weighted samples with paired trajectories for the two flows."""

    x0: np.ndarray
    xi0: np.ndarray
    weights: np.ndarray
    phase_idx: np.ndarray
    x_vp: np.ndarray
    xi_vp: np.ndarray
    x_vm: np.ndarray
    xi_vm: np.ndarray
    seed: int
    t: float = 0.0

    @property
    def size(self) -> int:
        return self.x0.shape[0]

    @property
    def dim(self) -> int:
        return self.x0.shape[1]


def sample_cloud(ens0: PhaseEnsemble, n: int, seed: int) -> ParticleCloud:
    """Draw n samples from the ensemble's phase-space measure at t = 0.

    Phase labels are drawn proportionally to mu_theta <rho_theta>, positions
    by rejection against sup_grid rho_theta, and momenta are read off the
    phase's momentum field at the accepted positions.  Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(seed)
    d, k = ens0.dim, ens0.cutoff
    masses = ens0.mu * ens0.phase_masses()
    probs = masses / masses.sum()
    labels = rng.choice(ens0.mu.size, size=n, p=probs)
    x = np.empty((n, d))
    xi = np.empty((n, d))
    for p in range(ens0.mu.size):
        idx = np.flatnonzero(labels == p)
        if idx.size == 0:
            continue
        pts = rejection_sample_positions(SpectralField(d, k, ens0.rho[p]), idx.size, rng)
        x[idx] = pts
        xi[idx] = SpectralField(d, k, ens0.xi[p]).evaluate_at(pts)
    w = np.full(n, 1.0 / n)
    return ParticleCloud(
        x0=x, xi0=xi, weights=w, phase_idx=labels,
        x_vp=x.copy(), xi_vp=xi.copy(), x_vm=x.copy(), xi_vm=xi.copy(),
        seed=seed, t=0.0,
    )


def _push(x, xi, stage_fields, eps: float, dt: float):
    """One 4-stage step of Xdot = v(Xi), Xidot = E(X) + eps v(Xi) x B(X) at the stage fields.

    stage_fields holds the (E, B) pair of each stage; a None B, or eps = 0,
    means no magnetic force.  Positions come back wrapped into [0, 2pi).
    """
    d = x.shape[1]

    def slope(i, ys):
        xs, xis = ys
        v = _velocity_grid(xis, eps, axis=1)
        e_f, b_f = stage_fields[i]
        if b_f is None or eps == 0:
            return v, e_f.evaluate_at(xs)
        vals = stack([e_f, b_f]).evaluate_at(xs)
        return v, vals[:, :d] + eps * cross(v.T, vals[:, d:].T, d).T

    x_new, xi_new = rk4_step((x, xi), slope, dt)
    return wrap_positions(x_new), xi_new


def flow_vp_step(cloud: ParticleCloud, stage_fields, dt: float) -> ParticleCloud:
    """Advance the electrostatic trajectories by one 4-stage step.

    stage_fields is the step record's: the (E, B) pair at each of the four
    stages, of which only E = -grad phi acts.
    """
    x, xi = _push(cloud.x_vp, cloud.xi_vp, stage_fields, 0.0, dt)
    return replace(cloud, x_vp=x, xi_vp=xi, t=cloud.t + dt)


def flow_vm_step(cloud: ParticleCloud, stage_fields, eps: float, dt: float) -> ParticleCloud:
    """Advance the relativistic trajectories by one 4-stage step.

    stage_fields is the step record's: the (E, B) pair at each of the four
    stages (B may be None when there is no magnetic field).  The magnetic
    term is `spectral.cross`, as in the fluid: the planar eps*(v2 B, -v1 B)
    in d=2 and the full cross product in d=3; |v| <= 1/eps holds pointwise
    by construction.
    """
    x, xi = _push(cloud.x_vm, cloud.xi_vm, stage_fields, eps, dt)
    return replace(cloud, x_vm=x, xi_vm=xi)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

_BLOCKS = ("x0", "xi0", "weights", "x_vp", "xi_vp", "x_vm", "xi_vm")


def save_cloud(cloud: ParticleCloud, path) -> None:
    """Columnar binary checkpoint: JSON header, then float64/int64 blocks."""
    header = {
        "format": "vmvp-cloud-v1",
        "n": cloud.size,
        "dim": cloud.dim,
        "seed": cloud.seed,
        "t": cloud.t,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        for name in _BLOCKS:
            fh.write(np.ascontiguousarray(getattr(cloud, name), dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(cloud.phase_idx, dtype=np.int64).tobytes())


def load_cloud(path) -> ParticleCloud:
    header, raw = read_binary(path, "vmvp-cloud-v1", counts=("n", "dim", "seed"), numbers=("t",))
    n, d = header["n"], header["dim"]
    if n == 0:
        raise ValidationError(f"{path}: a cloud needs at least one point")
    expect_bytes(path, raw, 8 * n * (6 * d + 2))  # six d-wide blocks, the weights, phase_idx
    arrays, offset = {}, 0
    for name in _BLOCKS:
        cols = 1 if name == "weights" else d
        block = np.frombuffer(raw, dtype=np.float64, count=n * cols, offset=offset)
        arrays[name] = block.copy() if cols == 1 else block.reshape(n, d).copy()
        offset += 8 * n * cols
    phase_idx = np.frombuffer(raw, dtype=np.int64, offset=offset).copy()
    return ParticleCloud(seed=header["seed"], t=header["t"], phase_idx=phase_idx, **arrays)


def replay_coupling(paths) -> list[tuple[float, float]]:
    """Rebuild the (t, Q) series from saved cloud checkpoints."""
    from .transport import coupling_Q

    out = []
    for p in paths:
        cloud = load_cloud(p)
        out.append((cloud.t, coupling_Q(cloud)))
    return sorted(out)
