"""The benchmark workloads: set-up, one measured pass, and output checks.

Each workload is a closed loop with one caller: the next call into vmvp
starts when the previous one returns.  The amount of work in a pass is fixed
by ``--seconds`` alone (never by elapsed time), so two versions of the
program do the same work and differ only in how long it takes.  On a 2-core
x86-64 host with numpy 2.4 and scipy 1.17, a pass at ``--seconds 25`` took
13-19 s (sweep2d), 25-33 s (ck2d) and 40-55 s (loeper).  The sweep horizon is
kept at one snapshot interval; the Loeper battery runs 8 cases because its
per-case time spreads by about 18% across seeds, and fewer cases would not
keep the run-to-run spread small.

Every pass checks the program's outputs.  Each call that raises, aborts or
fails a check counts as one failed operation; a pass never stops early.
"""

from __future__ import annotations

import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vmvp import harness, multifluid, transport
from vmvp.config import build_em_state, build_ensemble, load_config, resolve_config_path
from vmvp.lagrangian import load_cloud, sample_cloud
from vmvp.spectral import AnalyticNormParams, SpectralField

# Reference tolerances.  Values computed from the fluid fields (per-step
# diagnostics, ck2d iterate differences) match the recorded ones to REL_TOL
# of the size of the fields, max(|value|, 1) or the size of the iterates.
REL_TOL = 1e-12
# The W2 and Q series measure the gap between nearly equal VM and VP particle
# clouds whose coordinates are O(1), so they are checked against how far the
# particles may move: ROADMAP allows a refactor to move trajectories by
# 1e-13, relative to coordinates up to 2*pi, and TRAJ_TOL rounds that up to
# an absolute phase-space distance per particle.
TRAJ_TOL = 1e-12
# loeper_check's left side is a spectral norm and its right side an exact W2
# between random clouds; both are well conditioned.
LOEPER_REL_TOL = 1e-9
# Chance, per snapshot, that the subsampled W2 of a correct program exceeds
# the coupling bound below by sampling alone.
COUPLING_DELTA = 1e-9

SWEEP_STEPS_PER_SECOND = 1.0   # 25 s -> the 25-step horizon (one snapshot interval)
CK_CALLS_PER_SECOND = 1 / 8    # one ck_iterate call (10 iterations) takes ~8 s
LOEPER_CASES_PER_SECOND = 1 / 3  # one 4096-sample case takes ~6 s


@dataclass
class Outcome:
    """What one measured pass did: operations attempted and failed, work units."""

    attempted: int = 0
    failed: int = 0
    work: int = 0
    notes: list = field(default_factory=list)
    info: list = field(default_factory=list)  # diagnostics that are not failures

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _close(got, want, tol) -> bool:
    """Elementwise |got - want| <= tol, with matching shapes."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool((np.abs(got - want) <= tol).all())


def _close_rel(got, want, rel=REL_TOL, floor=1.0) -> bool:
    """Elementwise |got - want| <= rel * max(|want|, floor)."""
    return _close(got, want, rel * np.maximum(np.abs(np.asarray(want, dtype=float)), floor))


def eps_key(eps: float) -> str:
    return f"{eps:g}"


def torus_gap_sq(cloud) -> np.ndarray:
    """Squared phase-space gap between each particle's VP and VM position."""
    dx = np.abs(cloud.x_vp - cloud.x_vm) % (2 * np.pi)
    dx = np.minimum(dx, 2 * np.pi - dx)
    return (dx * dx).sum(axis=1) + ((cloud.xi_vp - cloud.xi_vm) ** 2).sum(axis=1)


def coupling_bound(gap_sq: np.ndarray, weights: np.ndarray, n_sub: int, delta: float = COUPLING_DELTA) -> float:
    """Upper bound on the W2^2 of an n_sub-particle subsample, false with chance <= delta.

    W2^2 between the VP and VM positions of the same n_sub particles is at
    most the cost of pairing each particle with itself: the subsample mean of
    gap_sq.  That mean never exceeds M = max(gap_sq), and, drawn without
    replacement from equally weighted particles, exceeds the cloud mean 2Q by
    t with chance at most exp(-2 n_sub t^2 / M^2) (Hoeffding 1963, sec. 6).
    """
    top = float(gap_sq.max(initial=0.0))
    if not np.allclose(weights, weights[0], rtol=1e-12, atol=0.0):
        return top  # the Hoeffding step needs equal weights
    two_q = float(np.dot(weights, gap_sq))
    return min(top, two_q + top * math.sqrt(math.log(1 / delta) / (2 * n_sub)))


# ----------------------------------------------------------------------
# sweep2d: the eps sweep users run
# ----------------------------------------------------------------------

class Sweep2d:
    """harness.run_sweep on the bundled sweep2d data, horizon cut to the run length.

    Work unit: one fluid step, counting the VP side once and every VM pair
    run.  Operations checked: each pair run, plus the rate fit of the sweep.
    """

    name = "sweep2d"
    unit = "steps"

    def __init__(self, seed: int, seconds: float, refs: dict, scratch: Path):
        cfg = load_config(resolve_config_path("bundled/sweep2d"))
        cfg.seed = seed
        cfg.t_final = max(2, round(seconds * SWEEP_STEPS_PER_SECOND)) * cfg.dt
        cfg.validate()
        # run_sweep builds these itself; building them here times the set-up
        for eps in cfg.eps_list:
            build_ensemble(cfg, eps)
            build_em_state(cfg, eps)
        cloud = sample_cloud(build_ensemble(cfg, 0.0), cfg.n_particles, cfg.seed)
        self.w_min = float(cloud.weights.min())
        self.cfg = cfg
        self.seed = seed
        self.refs = refs.get("sweep2d", {})
        self.out = scratch / "sweep2d"

    def run(self) -> Outcome:
        cfg = self.cfg
        out = Outcome()
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            rep = harness.run_sweep(cfg, out_dir=self.out)
        except Exception:
            for _ in range(len(cfg.eps_list) + 1):
                out.record(False, traceback.format_exc())
            return out
        seed_ref = self.refs.get("seeds", {}).get(str(self.seed))
        over_3se = 0
        for eps, run in zip(rep.eps_values, rep.runs):
            out.work += len(run.step_rows) - 1
            out.record(*self._check_pair(eps, run, seed_ref))
            over_3se += sum(w * w > 2 * q + 3 * se for w, q, se in zip(run.w2, run.q, run.w2_se))
        out.info.append(f"criterion 6 (W2^2 <= 2Q + 3se): {over_3se} of "
                        f"{sum(len(r.w2) for r in rep.runs)} snapshots over, a 3-sigma test, not checked")
        out.work += cfg.n_steps  # the VP side, shared by every pair
        out.record(*self._check_fit(rep, seed_ref))
        return out

    def _check_pair(self, eps, run, seed_ref):
        key = eps_key(eps)
        if run.aborted:
            return False, f"eps={key}: aborted: {run.abort_message}"
        if len(run.step_rows) != self.cfg.n_steps + 1:
            return False, f"eps={key}: {len(run.step_rows)} step rows, expected {self.cfg.n_steps + 1}"
        ok, note = self._check_coupling(key, run)
        if not ok:
            return False, f"eps={key}: {note}"
        ref_rows = self.refs.get("steps", {}).get(key)
        if ref_rows is not None:
            n = min(len(ref_rows), len(run.step_rows))
            if not _close_rel(run.step_rows[:n], ref_rows[:n]):
                return False, f"eps={key}: per-step diagnostics differ from the recorded values"
        if seed_ref is not None:
            snap = seed_ref["pairs"][key]
            steps = np.round(run.snap_t / self.cfg.dt).astype(int).tolist()
            n = 0
            while n < min(len(steps), len(snap["steps"])) and steps[n] == snap["steps"][n]:
                n += 1
            for name, ok in self._snapshot_checks(run, snap, n):
                if not ok:
                    return False, f"eps={key}: snapshot {name} differs from the recorded values"
        return True, ""

    def _check_coupling(self, key, run):
        """W2 <= the coupling bound and Q = the cost of the checkpointed clouds, per snapshot.

        Criterion 6's own rule, W2^2 <= 2Q + 3 se, is a 3-sigma test on an
        8-replicate bootstrap: correct code fails it on about 1 seed in 100
        (seed 1163613709 does at every eps), so it is reported, not checked.
        """
        paths = sorted((self.out / f"eps_{key}" / "checkpoints").glob("cloud_*.cloud"))
        if len(paths) != len(run.w2):
            return False, f"{len(paths)} cloud checkpoints for {len(run.w2)} snapshots"
        n_sub = min(self.cfg.w2_subsample, self.cfg.n_particles)
        for path, w2, q in zip(paths, run.w2, run.q):
            cloud = load_cloud(path)
            gap_sq = torus_gap_sq(cloud)
            if not _close(np.sqrt(2 * q), np.sqrt(np.dot(cloud.weights, gap_sq)), 2 * TRAJ_TOL):
                return False, f"{path.name}: Q {q!r} is not the coupling cost of the saved clouds"
            bound = coupling_bound(gap_sq, cloud.weights, n_sub)
            if w2 > math.sqrt(bound) + TRAJ_TOL:
                return False, f"{path.name}: W2^2 {w2 * w2!r} above the coupling bound {bound!r}"
        return True, ""

    def _snapshot_checks(self, run, snap, n):
        """Snapshot series against the reference, if each particle moves at most TRAJ_TOL.

        Moving every particle of both clouds by at most d moves each VP-VM gap
        g_i by at most 2d.  W2 and sqrt(2Q) = |g|_L2(w) are 1-Lipschitz in the
        gaps, so each moves by at most 2d.  The standard error is the std of B
        bootstrap W2^2 values, each at most max_i g_i^2 <= 2Q / min(w); so it
        moves by at most sqrt(B/(B-1)) * 2d * (2 sqrt(2Q / min(w)) + 2d).
        """
        d2 = 2 * TRAJ_TOL
        q_ref = np.asarray(snap["q"][:n])
        boot = self.cfg.bootstrap_reps
        se_tol = np.sqrt(boot / (boot - 1)) * d2 * (2 * np.sqrt(2 * q_ref / self.w_min) + d2)
        yield "w2", _close(run.w2[:n], snap["w2"][:n], d2)
        yield "q", _close(np.sqrt(2 * run.q[:n]), np.sqrt(2 * q_ref), d2)
        yield "se", _close(run.w2_se[:n], snap["se"][:n], se_tol)

    def _check_fit(self, rep, seed_ref):
        # criterion 9: sup W2 decreases toward eps -> 0 at a fitted rate >= 0.8
        if not rep.monotone or rep.kappa_measured < 0.8 or rep.r_squared < 0.98:
            return False, f"fit: monotone={rep.monotone} kappa={rep.kappa_measured} R^2={rep.r_squared}"
        try:
            written = json.loads((self.out / "sweep.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return False, f"fit: sweep.json unreadable: {exc}"
        if written.get("kappa_measured") != rep.kappa_measured:
            return False, "fit: sweep.json does not carry the fitted kappa"
        if seed_ref is not None and seed_ref["n_steps"] == self.cfg.n_steps:
            # each sup W2 moves by at most 2 TRAJ_TOL; kappa is the least-squares
            # slope sum_i a_i log(sup_i), so it moves by sum_i |a_i| |d log(sup_i)|
            d2 = 2 * TRAJ_TOL
            sup_ref = np.asarray(seed_ref["sup_w2"])
            x = np.log(rep.eps_values)
            a = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
            kappa_tol = float((np.abs(a) * d2 / (sup_ref - d2)).sum())
            if not _close(rep.sup_w2, sup_ref, d2):
                return False, "fit: sup_w2 differs from the recorded values"
            if not _close(rep.kappa_measured, seed_ref["kappa"], kappa_tol):
                return False, f"fit: kappa {rep.kappa_measured!r} != recorded {seed_ref['kappa']!r}"
        return True, ""


# ----------------------------------------------------------------------
# loeper: the H^-1 vs W2 inequality battery of acceptance criterion 7
# ----------------------------------------------------------------------

def loeper_densities(case_seed: int, cutoff: int = 8):
    """Two random positive densities, drawn exactly as acceptance criterion 7 draws them."""
    rng = np.random.default_rng(case_seed)

    def draw():
        entries = [(0, (0, 0), 1.0)]
        for _ in range(5):
            k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if k == (0, 0):
                continue
            amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
            entries.append((0, k, amp))
        return SpectralField.from_modes(2, cutoff, 1, entries)

    return draw(), draw()


def loeper_case_seeds(seed: int, seconds: float) -> list[int]:
    """The case seeds of one pass; a longer pass extends a shorter one's list."""
    n_cases = max(1, round(seconds * LOEPER_CASES_PER_SECOND))
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n_cases)]


class Loeper:
    """A serial battery of transport.loeper_check cases (4096 samples, 10% slack).

    Work unit and operation: one case.  The case seeds, which fix both the
    density draws and the samples, derive from the workload seed.
    """

    name = "loeper"
    unit = "cases"
    N_SAMPLES = 4096
    SLACK = 0.10

    def __init__(self, seed: int, seconds: float, refs: dict, scratch: Path):
        self.cases = [(s, *loeper_densities(s)) for s in loeper_case_seeds(seed, seconds)]
        self.refs = refs.get("loeper", {}).get("cases", {})

    def run(self) -> Outcome:
        out = Outcome()
        for case_seed, rho1, rho2 in self.cases:
            try:
                lhs, rhs, ok = transport.loeper_check(rho1, rho2, self.N_SAMPLES, case_seed, slack=self.SLACK)
            except Exception:
                out.record(False, f"case {case_seed}: {traceback.format_exc()}")
                continue
            out.work += 1
            out.record(*self._check(case_seed, lhs, rhs, ok))
        return out

    def _check(self, case_seed, lhs, rhs, ok):
        if not ok:
            return False, f"case {case_seed}: lhs {lhs!r} > (1 + {self.SLACK}) rhs {rhs!r}"
        # a wrong assignment only raises W2 and so rhs, which the inequality
        # cannot see; the recorded values can
        ref = self.refs.get(str(case_seed))
        if ref is not None:
            for name, got in (("lhs", lhs), ("rhs", rhs)):
                if not _close_rel(got, ref[name], LOEPER_REL_TOL, 0.0):
                    return False, f"case {case_seed}: {name} {got!r} != recorded {ref[name]!r}"
        return True, ""


# ----------------------------------------------------------------------
# ck2d: the successive-approximation solver
# ----------------------------------------------------------------------

class Ck2d:
    """multifluid.ck_iterate on the bundled ck2d data, repeated.

    Work unit: one full-horizon iteration.  Operation: one ck_iterate call.
    The data are deterministic, so the workload seed is unused.
    """

    name = "ck2d"
    unit = "iterations"

    def __init__(self, seed: int, seconds: float, refs: dict, scratch: Path):
        cfg = load_config(resolve_config_path("bundled/ck2d"))
        eps = cfg.eps_list[0]
        self.ens = build_ensemble(cfg, eps)
        self.em = build_em_state(cfg, eps)
        self.params = AnalyticNormParams(delta0=cfg.delta0, delta=cfg.delta1, eta=cfg.eta, beta=cfg.loss_beta)
        self.cfg = cfg
        self.n_calls = max(1, round(seconds * CK_CALLS_PER_SECOND))
        self.refs = refs.get("ck2d")

    def run(self) -> Outcome:
        out = Outcome()
        for _ in range(self.n_calls):
            try:
                rep = multifluid.ck_iterate(
                    self.ens, self.em, self.params, n_max=self.cfg.ck_n_iters, n_time=self.cfg.ck_n_time
                )
            except Exception:
                out.record(False, traceback.format_exc())
                continue
            out.work += rep.n_iters
            out.record(*self._check(rep))
        return out

    def _check(self, rep):
        # criterion 8: ratios d_{n+1}/d_n <= 0.75 for n = 3..8, no divergence
        window = rep.ratios[1:7]
        if rep.diverged or len(window) != 6 or any(r > 0.75 for r in window):
            return False, f"contraction failed: diverged={rep.diverged} ratios={window}"
        if self.refs is not None:
            for name in ("diffs_rho", "diffs_xi"):
                # differences of iterates whose size is c0; tolerance relative to c0
                if not _close_rel(getattr(rep, name), self.refs[name], floor=max(rep.c0_measured, 1.0)):
                    return False, f"{name} differ from the recorded values"
        return True, ""


WORKLOADS = {w.name: w for w in (Sweep2d, Loeper, Ck2d)}
