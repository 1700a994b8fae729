import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import refuse_dense, subsampled_w2_plain
from vmvp.config import load_config, resolve_config_path
from vmvp.errors import ValidationError
from vmvp.fields import EMState, gauge_residuals
from vmvp.lagrangian import ParticleCloud, load_cloud, sample_cloud
from vmvp.harness import (
    SNAP_COLUMNS,
    STEP_COLUMNS,
    _subsampled_w2,
    fit_kappa,
    osgood_diagnostic,
    run_pair,
    run_sweep,
    verify_suite,
)
from vmvp.spectral import SpectralField
from vmvp.transport import (
    AUCTION_K,
    TWO_PI,
    EmpiricalMeasure,
    _auction_prices,
    _candidates,
    identity_pair_costs,
    w2_exact,
)


@pytest.fixture(scope="module")
def small_cfg():
    return load_config(resolve_config_path("bundled/small2d"))


def osgood_closed_form(times, q, kappa, eps, t_final):
    q = np.asarray(q, float)
    lp = np.where(q > 0, np.maximum(np.log(1 / np.where(q > 0, q, 1)), 0), 0)
    integrand = q * (1 + lp)
    integral = np.concatenate([[0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times))])
    pref = (1 + t_final) ** 2
    return float((q / (pref * (eps ** kappa + integral))).max())


class TestOsgood:
    def test_zero_series(self):
        assert osgood_diagnostic(np.linspace(0, 1, 5), np.zeros(5), 0.5, 0.2, 1.0) == 0.0

    def test_matches_closed_form_on_synthetic(self):
        # Q(t) = eps^k * t: the minimal constant has a closed form on the grid
        eps, kappa, T = 0.2, 0.5, 1.0
        ts = np.linspace(0, 0.25, 26)
        q = eps ** kappa * ts
        got = osgood_diagnostic(ts, q, kappa, eps, T)
        expect = osgood_closed_form(ts, q, kappa, eps, T)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_small_time_hand_limit(self):
        # for tiny t the integral term is negligible: C ~ t_max / (1+T)^2
        eps, kappa, T = 0.2, 0.5, 1.0
        ts = np.linspace(0, 0.02, 21)
        q = eps ** kappa * ts
        got = osgood_diagnostic(ts, q, kappa, eps, T)
        assert got == pytest.approx(0.02 / (1 + T) ** 2, rel=0.02)

    def test_returns_a_python_float(self):
        ts = np.linspace(0, 0.25, 26)
        assert type(osgood_diagnostic(ts, 1e-3 * ts, 0.5, 0.2, 1.0)) is float

    def test_no_finite_constant(self):
        # eps^kappa underflows to 0, so nothing bounds Q(0) > 0
        with pytest.raises(RuntimeError, match="finite"):
            osgood_diagnostic(np.linspace(0, 1, 5), np.full(5, 0.1), 1e4, 0.2, 1.0)

    def test_monotone_in_amplitude(self):
        ts = np.linspace(0, 0.5, 21)
        base = 1e-4 * ts
        c1 = osgood_diagnostic(ts, base, 0.5, 0.2, 0.5)
        c2 = osgood_diagnostic(ts, 10 * base, 0.5, 0.2, 0.5)
        assert c2 > c1


class TestFitKappa:
    def test_exact_power_law(self):
        eps = [0.4, 0.2, 0.1, 0.05]
        w2 = [0.7 * e ** 1.5 for e in eps]
        k, r2 = fit_kappa(eps, w2)
        assert k == pytest.approx(1.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_sweep_needs_three_points(self, small_cfg):
        with pytest.raises(ValidationError, match="3"):
            run_sweep(replace(small_cfg, eps_list=[0.2, 0.1]))


class TestVerifySuite:
    def test_bundled_all_pass(self, small_cfg):
        results = verify_suite(small_cfg)
        failures = [r.name for r in results if not r.passed]
        assert failures == []

    def test_eps_zero_reduction_follows_eps_squared(self, small_cfg):
        (check,) = [r for r in verify_suite(small_cfg) if r.name == "multifluid.eps_zero_reduction"]
        assert 0.24 <= check.residual <= 0.26

    def test_eps_zero_reduction_passes_on_a_stationary_state(self, small_cfg):
        # uniform opposite streams never move: both gaps sit at roundoff, and the check passes
        from vmvp.config import PhaseSpec

        streams = [PhaseSpec(0.5, [((0, 0), 1.0)], [(0, (0, 0), s * 0.25)]) for s in (1, -1)]
        cfg = replace(small_cfg, phases=streams)
        (check,) = [r for r in verify_suite(cfg) if r.name == "multifluid.eps_zero_reduction"]
        assert check.passed and check.residual == 0.0

    def test_order_eps_velocity_fails_eps_zero_reduction(self, small_cfg, monkeypatch):
        # fault injection: v = xi / sqrt(1 + eps |xi|^2) leaves an O(eps) gap to VP
        from vmvp import multifluid

        def velocity_grid_eps(xi, eps, axis=0):
            return xi if eps == 0 else xi / np.sqrt(1.0 + eps * (xi ** 2).sum(axis=axis, keepdims=True))

        monkeypatch.setattr(multifluid, "_velocity_grid", velocity_grid_eps)
        results = verify_suite(small_cfg)
        assert len(results) == 24
        assert [r.name for r in results if not r.passed] == ["multifluid.eps_zero_reduction"]

    def test_unprojected_source_fails_gauge_after_run(self, small_cfg, monkeypatch):
        # fault injection: the step's wave source keeps its curl-free part, so div A grows
        from vmvp import multifluid

        monkeypatch.setattr(multifluid, "leray_coeffs", lambda c, dim: c)
        (check,) = [r for r in verify_suite(small_cfg) if r.name == "fields.gauge_after_run"]
        assert not check.passed and check.residual > 1e-3

    def test_broken_gauge_detected(self):
        # fault injection: a vector potential with nonzero mean must be flagged
        k = 4
        a = SpectralField.from_modes(2, k, 2, [(0, (0, 0), 0.3), (1, (1, 0), 0.1)])
        st = EMState(
            a=a,
            eps_adot=SpectralField.zeros(2, k, 2),
            mean_b0=np.zeros(1),
            mean_eps_adot0=np.zeros(2),
        )
        g = gauge_residuals(st)
        assert g["mean_a"] > 1e-12  # the gauge check fails on the injected fault


def gate_crossing_streams(cfg):
    """Two mirrored streams whose gate starts 0.1% below its bound and crosses it
    in an RK stage of step 14 of 20: (config, eps)."""
    import copy

    from vmvp.config import build_ensemble
    from vmvp.multifluid import GATE_BOUND, gate_margin

    hot = copy.deepcopy(cfg)
    hot.phases[0].xi_modes = [(0, (0, 0), 3.0), (0, (1, 0), 0.3j)]
    hot.phases[1].rho_modes = list(hot.phases[0].rho_modes)
    hot.phases[1].xi_modes = [(0, (0, 0), -3.0), (0, (1, 0), -0.3j)]
    hot = replace(hot, t_final=20 * hot.dt)
    return hot, 0.999 * GATE_BOUND / gate_margin(build_ensemble(hot, 1.0), hot.delta1)


class TestRunPairOutputs:
    def test_w2_bound_and_ledger_complete(self, small_cfg):
        rep = run_pair(small_cfg, 0.2)
        assert not rep.aborted
        for w2, q, se in zip(rep.w2, rep.q, rep.w2_se):
            assert w2 ** 2 <= 2 * q + 3 * se + 1e-15
        for key in (
            "rho_vm_sup", "rho_vm_l1", "m_alpha_sup", "l2_eps_adot_sup", "l2_b_sup",
            "c0_from_rho", "c0_from_m_alpha", "c0_from_gamma1", "c0_from_gamma2",
            "vp_density_sup", "vp_fourth_moment_sup", "kappa",
        ):
            assert key in rep.ledger
        assert np.isfinite(rep.osgood_c)

    def test_reproducible_outputs(self, small_cfg, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_pair(small_cfg, 0.2, out_dir=d1)
        run_pair(small_cfg, 0.2, out_dir=d2)
        for name in ("steps.csv", "snapshots.csv", "report.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_schema_golden(self, small_cfg, tmp_path):
        out = tmp_path / "run"
        run_pair(small_cfg, 0.2, out_dir=out)
        steps_header = (out / "steps.csv").read_text().splitlines()[0]
        snaps_header = (out / "snapshots.csv").read_text().splitlines()[0]
        assert steps_header == STEP_COLUMNS
        assert snaps_header == SNAP_COLUMNS
        payload = json.loads((out / "report.json").read_text())
        assert sorted(payload.keys()) == [
            "abort_message", "aborted", "eps", "kappa", "ledger",
            "osgood_c", "sup_q", "sup_w2", "truncation_time",
        ]
        ckpts = sorted((out / "checkpoints").glob("*.cloud"))
        assert len(ckpts) > 0

    def test_sweep_samples_the_cloud_once(self, small_cfg, monkeypatch):
        from vmvp import harness

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_cloud(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_cloud", counted)
        cfg = replace(small_cfg, eps_list=[0.2, 0.1, 0.05], t_final=5 * small_cfg.dt)
        assert len(run_sweep(cfg).runs) == 3
        assert len(calls) == 1

    def test_a_vp_run_without_a_cloud_runs_without_particles(self, small_cfg):
        from vmvp.harness import _run_vp_side

        cfg = replace(small_cfg, t_final=5 * small_cfg.dt)
        rep = run_pair(cfg, 0.2, vp_run=_run_vp_side(replace(cfg, n_particles=0)))
        assert not rep.aborted and len(rep.w2) == len(rep.q) == 0

    def test_gate_violation_refuses_to_run(self, small_cfg):
        import copy

        from vmvp.errors import NumericalAbort

        hot = copy.deepcopy(small_cfg)
        hot.phases[0].xi_modes = [(0, (0, 0), 3.0)]   # mirror drifts: mean current
        hot.phases[1].xi_modes = [(0, (0, 0), -3.0)]  # still vanishes, gate does not
        with pytest.raises(NumericalAbort, match="gate"):
            run_pair(replace(hot, n_particles=0), 0.9)

    def test_an_abort_reports_its_step_and_time(self, small_cfg):
        hot, eps = gate_crossing_streams(small_cfg)
        rep = run_pair(replace(hot, n_particles=0), eps)
        assert rep.aborted and rep.truncation_time == 14 * hot.dt
        assert rep.abort_message.startswith(f"step 14, t = {14 * hot.dt:g}: validity gate violated at stage ")

    def test_a_vp_side_abort_reports_its_step_and_time(self, small_cfg, monkeypatch):
        from vmvp import harness
        from vmvp.errors import NumericalAbort

        real_step, calls = harness.vp_step_full, []

        def fails_on_step_3(ens, dt):
            calls.append(dt)
            if len(calls) == 4:
                raise NumericalAbort("phase 0 density negative on the grid: min = -1.000e-03")
            return real_step(ens, dt)

        monkeypatch.setattr(harness, "vp_step_full", fails_on_step_3)
        cfg = replace(small_cfg, t_final=10 * small_cfg.dt)
        with pytest.raises(NumericalAbort) as exc:
            run_pair(cfg, 0.2)
        assert str(exc.value).startswith(f"step 3, t = {3 * cfg.dt:g}: phase 0 density negative")
        assert exc.value.t == 3 * cfg.dt


def checkpoint_names(out):
    return [p.name for p in sorted((out / "checkpoints").glob("*.cloud"))]


class TestSnapshotSchedule:
    def test_every_snapshot_step_and_the_last(self, small_cfg, tmp_path):
        cfg = replace(small_cfg, t_final=23 * small_cfg.dt, snapshot_every=10)
        rep = run_pair(cfg, 0.2, out_dir=tmp_path)
        times = [s * cfg.dt for s in (0, 10, 20, 23)]
        assert rep.snap_t.tolist() == times
        names = checkpoint_names(tmp_path)
        assert names == [f"cloud_{i:04d}.cloud" for i in range(len(times))]
        assert [load_cloud(tmp_path / "checkpoints" / name).t for name in names] == times

    def test_an_abort_ends_the_snapshots(self, small_cfg, tmp_path):
        hot, eps = gate_crossing_streams(small_cfg)
        assert hot.snapshot_every == 10
        rep = run_pair(hot, eps, out_dir=tmp_path)
        assert rep.aborted and rep.truncation_time == 14 * hot.dt
        assert rep.snap_t.tolist() == [0.0, 10 * hot.dt]
        assert checkpoint_names(tmp_path) == ["cloud_0000.cloud", "cloud_0001.cloud"]


class TestBeamOracles:
    """Two opposite homogeneous beams, whose particles' Q(t) has a closed form.

    mu 0.5 each, rho = 1 and xi = +-(v0, 0): the net current is 0, so E and A
    stay 0, neither fluid changes and the particles move freely.  With gamma =
    sqrt(1 + eps^2 v0^2), without B0 the VM particles move at v0/gamma and the
    VP ones at v0, so sqrt(2Q) = v0 (1 - 1/gamma) t (rate 2); in a mean B0 = b
    the VM momenta rotate at omega = eps b / gamma (rate 1).
    """

    V0 = 0.25

    def beams(self, small_cfg, b0_modes):
        from vmvp.config import PhaseSpec

        phases = [PhaseSpec(0.5, [((0, 0), 1.0)], [(0, (0, 0), s * self.V0)]) for s in (1, -1)]
        return replace(small_cfg, cutoff=4, phases=phases, b0_modes=b0_modes, n_particles=256, dt=1e-3, t_final=0.1,
                       snapshot_every=25, w2_subsample=256, eps_list=[0.2, 0.1, 0.05])

    def q_exact(self, t, eps, b):
        v0 = self.V0
        gamma = np.sqrt(1 + eps ** 2 * v0 ** 2)
        if b == 0:
            return (v0 * (1 - 1 / gamma) * t) ** 2 / 2
        omega = eps * b / gamma
        s, c = np.sin(omega * t), np.cos(omega * t)
        dx = (v0 / gamma) * np.array([s / omega, (1 - c) / omega]) - np.array([v0 * t, 0.0])
        dxi = v0 * np.array([c - 1, s])
        return (dx @ dx + dxi @ dxi) / 2

    @pytest.mark.parametrize("b,q_tol,kappa", [(0.0, 1e-6, 2.0), (0.5, 1e-10, 1.0)])
    def test_q_w2_and_rate_match_the_closed_form(self, small_cfg, b, q_tol, kappa):
        cfg = self.beams(small_cfg, [(0, (0, 0), b)] if b else [])
        sweep = run_sweep(cfg)
        for eps, rep in zip(cfg.eps_list, sweep.runs):
            assert not rep.aborted and rep.snap_t.tolist() == [s * cfg.dt for s in (0, 25, 50, 75, 100)]
            assert rep.q[0] == 0.0 and rep.w2[0] == 0.0
            for t, q, w2 in zip(rep.snap_t[1:], rep.q[1:], rep.w2[1:]):
                assert abs(q / self.q_exact(t, eps, b) - 1) <= q_tol
                assert abs(w2 / np.sqrt(2 * q) - 1) <= 1e-12
        assert abs(sweep.kappa_measured - kappa) <= 0.01


def _subsampled_w2_rebuilt(pairing, n_sub, rng, n_boot):
    """The estimator with one w2_exact call per replicate."""
    n = pairing.x_vp.shape[0]
    idx = rng.choice(n, size=min(n_sub, n), replace=False)
    mu = EmpiricalMeasure.uniform(pairing.x_vp[idx], pairing.xi_vp[idx])
    nu = EmpiricalMeasure.uniform(pairing.x_vm[idx], pairing.xi_vm[idx])
    w2 = w2_exact(mu, nu)
    reps = np.empty(n_boot)
    for b in range(n_boot):
        take = rng.choice(idx, size=idx.size, replace=True)
        mu_b = EmpiricalMeasure.uniform(pairing.x_vp[take], pairing.xi_vp[take])
        nu_b = EmpiricalMeasure.uniform(pairing.x_vm[take], pairing.xi_vm[take])
        reps[b] = w2_exact(mu_b, nu_b) ** 2
    se = float(reps.std(ddof=1)) if n_boot > 1 else 0.0
    return float(w2), se


@pytest.fixture(scope="module")
def small2d_snapshots(small_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("small2d_pair")
    run_pair(small_cfg, 0.2, out_dir=out)
    return [load_cloud(p) for p in sorted((out / "checkpoints").glob("*.cloud"))]


class TestSubsampledW2:
    def test_certified_snapshots_equal_the_assignment_path(self, small_cfg, small2d_snapshots):
        assert len(small2d_snapshots) == 6
        n_sub, n_boot = small_cfg.w2_subsample, small_cfg.bootstrap_reps
        for i, snap in enumerate(small2d_snapshots):
            mu = EmpiricalMeasure.uniform(snap.x_vp, snap.xi_vp)
            nu = EmpiricalMeasure.uniform(snap.x_vm, snap.xi_vm)
            assert identity_pair_costs(mu, nu) is not None  # so every subsample is certified too
            got = _subsampled_w2(snap, n_sub, np.random.default_rng(i), n_boot)
            assert got == subsampled_w2_plain(snap, n_sub, np.random.default_rng(i), n_boot)

    @staticmethod
    def pairing(n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, TWO_PI, (n, 2))
        xi = rng.normal(0, 0.5, (n, 2))
        return ParticleCloud(
            x0=x, xi0=xi, phase_idx=np.zeros(n, dtype=int), seed=seed,
            x_vp=x, xi_vp=xi,
            x_vm=(x + rng.normal(0, 0.05, (n, 2))) % TWO_PI, xi_vm=xi + rng.normal(0, 0.05, (n, 2)),
            weights=np.full(n, 1.0 / n),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_sub", [96, 500])
    def test_bit_identical_to_rebuilt_cost_matrices(self, seed, n_sub):
        # n = 300: the subsample is a proper subset (96) or the whole cloud (500 >= n)
        pairing = self.pairing(300, seed)
        got = _subsampled_w2(pairing, n_sub, np.random.default_rng(seed), 8)
        want = _subsampled_w2_rebuilt(pairing, n_sub, np.random.default_rng(seed), 8)
        assert got == want
        assert got[1] > 0.0

    def test_swapped_close_pair_takes_the_certified_sparse_solve(self, monkeypatch):
        # the identity certificate declines on a near-identity cloud with one
        # close pair swapped, so the whole cloud goes through w2_assignment,
        # and so do the bootstrap replicates' gathered points, which repeat;
        # the sparse solve certifies every one of them
        n = 200
        rng = np.random.default_rng(8)
        x = rng.uniform(0, TWO_PI, (n, 2))
        xi = rng.normal(0, 0.5, (n, 2))
        x[1], xi[1] = x[0] + 0.01, xi[0] + 0.01
        swap = np.arange(n)
        swap[[0, 1]] = [1, 0]
        x_vm = (x + rng.normal(0, 1e-4, (n, 2)))[swap] % TWO_PI
        xi_vm = (xi + rng.normal(0, 1e-4, (n, 2)))[swap]
        pairing = ParticleCloud(
            x0=x, xi0=xi, phase_idx=np.zeros(n, dtype=int), seed=8,
            x_vp=x, xi_vp=xi, x_vm=x_vm, xi_vm=xi_vm, weights=np.full(n, 1.0 / n),
        )
        mu, nu = EmpiricalMeasure.uniform(x, xi), EmpiricalMeasure.uniform(x_vm, xi_vm)
        assert n > 2 * AUCTION_K
        assert identity_pair_costs(mu, nu) is None
        assert _auction_prices(*_candidates(mu, nu, np.zeros(nu.size))[:2]) is not None
        w2_plain, se_plain = subsampled_w2_plain(pairing, n, np.random.default_rng(0), 8)
        refuse_dense(monkeypatch)
        w2, se = _subsampled_w2(pairing, n, np.random.default_rng(0), 8)
        assert w2 == pytest.approx(w2_plain, rel=1e-13)
        assert se == pytest.approx(se_plain, rel=1e-13)
        assert se > 0.0
