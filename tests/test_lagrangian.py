import numpy as np
import pytest

from oracles import consistency_check, evaluate_at_naive, torus_wrap
from vmvp.errors import ValidationError
from vmvp.lagrangian import (
    ParticleCloud,
    flow_vm_step,
    flow_vp_step,
    load_cloud,
    replay_coupling,
    sample_cloud,
    save_cloud,
)
from vmvp.multifluid import PhaseEnsemble
from vmvp.spectral import SpectralField, gradient
from vmvp.transport import TWO_PI, coupling_Q

K = 6


def make_ensemble(entries, eps=0.0, dim=2):
    mus, rho_tables, xi_tables = zip(*entries)
    rho = [SpectralField.from_modes(dim, K, 1, [(0, kv, a) for kv, a in t]).coeffs for t in rho_tables]
    xi = [SpectralField.from_modes(dim, K, dim, [(c, kv, a) for c, kv, a in t]).coeffs for t in xi_tables]
    return PhaseEnsemble(mus, np.stack(rho), np.stack(xi), eps)


def frozen(e, b=None):
    """Stage fields of a field frozen over the step: the same (E, B) pair at all four stages."""
    return ((e, b),) * 4


def single_cloud(x, xi, seed=0):
    x = np.atleast_2d(np.asarray(x, float))
    xi = np.atleast_2d(np.asarray(xi, float))
    n = x.shape[0]
    return ParticleCloud(
        x0=x.copy(), xi0=xi.copy(), weights=np.full(n, 1 / n),
        phase_idx=np.zeros(n, dtype=int),
        x_vp=x.copy(), xi_vp=xi.copy(), x_vm=x.copy(), xi_vm=xi.copy(), seed=seed,
    )


class TestSampling:
    def test_uniform_monokinetic(self):
        c = np.array([0.3, -0.2])
        ens = make_ensemble([(1.0, [([0, 0], 1.0)], [(0, [0, 0], c[0]), (1, [0, 0], c[1])])])
        cloud = sample_cloud(ens, 200, seed=1)
        assert np.abs(cloud.xi0 - c).max() < 1e-12
        assert (cloud.x0 >= 0).all() and (cloud.x0 < TWO_PI).all()
        assert cloud.weights.sum() == pytest.approx(1.0)

    def test_two_phase_frequencies(self):
        ens = make_ensemble([
            (0.5, [([0, 0], 1.0)], [(0, [0, 0], 0.5)]),
            (0.5, [([0, 0], 1.0)], [(0, [0, 0], -0.5)]),
        ])
        n = 4000
        cloud = sample_cloud(ens, n, seed=7)
        frac = (cloud.phase_idx == 0).mean()
        sigma = 0.5 / np.sqrt(n)
        assert abs(frac - 0.5) < 3 * sigma

    def test_deterministic(self):
        ens = make_ensemble([
            (0.5, [([0, 0], 1.0), ([1, 0], 0.05)], [(0, [0, 0], 0.5)]),
            (0.5, [([0, 0], 1.0)], [(0, [0, 0], -0.5)]),
        ])
        a = sample_cloud(ens, 500, seed=123)
        b = sample_cloud(ens, 500, seed=123)
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.xi0, b.xi0)
        assert np.array_equal(a.phase_idx, b.phase_idx)

    def test_coupling_starts_at_zero(self):
        ens = make_ensemble([(1.0, [([0, 0], 1.0)], [(0, [0, 0], 0.1)])])
        cloud = sample_cloud(ens, 64, seed=2)
        assert coupling_Q(cloud) == 0.0


class TestVPFlow:
    def test_free_streaming(self):
        xi = np.array([[0.7, -0.4]])
        cloud = single_cloud([[1.0, 2.0]], xi)
        stages = frozen(SpectralField.zeros(2, K, 2))
        for _ in range(100):
            cloud = flow_vp_step(cloud, stages, 1e-2)
        expect = (np.array([1.0, 2.0]) + 1.0 * xi[0]) % TWO_PI
        assert np.abs(cloud.x_vp[0] - expect).max() < 1e-12
        assert np.abs(cloud.xi_vp - xi).max() == 0.0

    def test_pendulum_energy_fourth_order(self):
        phi = SpectralField.from_modes(1, K, 1, [(0, [1], 0.5)])  # cos(x1)
        stages = frozen(-gradient(phi))

        def energy_drift(dt, n):
            cloud = single_cloud([[np.pi / 2]], [[0.0]])
            h0 = 0.5 * cloud.xi_vp[0, 0] ** 2 + np.cos(cloud.x_vp[0, 0])
            for _ in range(n):
                cloud = flow_vp_step(cloud, stages, dt)
            h1 = 0.5 * cloud.xi_vp[0, 0] ** 2 + np.cos(cloud.x_vp[0, 0])
            return abs(h1 - h0)

        e1 = energy_drift(0.05, 200)
        e2 = energy_drift(0.025, 400)
        assert e1 < 1e-6
        assert e1 / e2 > 8  # consistent with a 4th-order step

    def test_reversibility(self):
        phi = SpectralField.from_modes(2, K, 1, [(0, [1, 0], 0.3), (0, [0, 1], 0.2j)])
        stages = frozen(-gradient(phi))
        cloud = single_cloud([[1.0, 2.0], [4.0, 0.5]], [[0.3, -0.1], [0.0, 0.2]])
        x0, xi0 = cloud.x_vp.copy(), cloud.xi_vp.copy()
        dt, n = 0.02, 50
        for _ in range(n):
            cloud = flow_vp_step(cloud, stages, dt)
        back = ParticleCloud(
            x0=cloud.x0, xi0=cloud.xi0, weights=cloud.weights, phase_idx=cloud.phase_idx,
            x_vp=cloud.x_vp, xi_vp=-cloud.xi_vp, x_vm=cloud.x_vm, xi_vm=cloud.xi_vm, seed=0,
        )
        for _ in range(n):
            back = flow_vp_step(back, stages, dt)
        assert np.abs(back.x_vp - x0).max() < 1e-8
        assert np.abs(-back.xi_vp - xi0).max() < 1e-8


class TestVMFlow:
    def test_free_relativistic_streaming(self):
        eps = 0.5
        xi = np.array([[1.2, 0.3]])
        v = xi / np.sqrt(1 + eps ** 2 * (xi ** 2).sum())
        cloud = single_cloud([[0.5, 0.5]], xi)
        e = SpectralField.zeros(2, K, 2)
        for _ in range(50):
            cloud = flow_vm_step(cloud, frozen(e), eps, 0.02)
        expect = (np.array([0.5, 0.5]) + 1.0 * v[0]) % TWO_PI
        assert np.abs(cloud.x_vm[0] - expect).max() < 1e-12
        assert np.linalg.norm(v) <= 1.0 / eps

    def test_gyration_preserves_speed(self):
        eps = 0.4
        e = SpectralField.zeros(3, 4, 3)
        b = SpectralField.constant(3, 4, [0.0, 0.0, 2.0])
        cloud = single_cloud([[0.0, 0.0, 0.0]], [[0.8, 0.0, 0.1]])
        # pad to 3d cloud manually
        s0 = np.linalg.norm(cloud.xi_vm[0])
        for _ in range(100):
            cloud = flow_vm_step(cloud, frozen(e, b), eps, 1e-2)
            assert abs(np.linalg.norm(cloud.xi_vm[0]) - s0) < 1e-10

    def test_eps_to_zero_richardson(self):
        phi = SpectralField.from_modes(2, K, 1, [(0, [1, 0], 0.2)])
        e = -1.0 * gradient(phi)
        b = SpectralField.constant(2, K, 0.8)
        start = single_cloud([[1.0, 4.0]], [[0.4, -0.2]])
        T, dt = 0.5, 1e-2

        def run_vm(eps):
            c = start
            for _ in range(int(T / dt)):
                c = flow_vm_step(c, frozen(e, b), eps, dt)
            return c.x_vm[0], c.xi_vm[0]

        c_vp = start
        for _ in range(int(T / dt)):
            c_vp = flow_vp_step(c_vp, frozen(e), dt)
        ref = c_vp.x_vp[0], c_vp.xi_vp[0]

        errs = []
        for eps in (0.2, 0.1, 0.05):
            x, xi = run_vm(eps)
            errs.append(np.linalg.norm(x - ref[0]) + np.linalg.norm(xi - ref[1]))
        # O(eps) convergence to the electrostatic flow (magnetic term dominates)
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.3)

    def test_wrapping_never_alters_momentum(self):
        eps = 0.3
        e = SpectralField.zeros(2, K, 2)
        cloud = single_cloud([[6.2, 0.1]], [[2.0, 1.5]])
        stepped = flow_vm_step(cloud, frozen(e), eps, 0.5)
        assert (stepped.x_vm >= 0).all() and (stepped.x_vm < TWO_PI).all()
        assert np.array_equal(stepped.xi_vm, cloud.xi_vm)

    def test_tiny_negative_position_wraps_below_two_pi(self):
        # -1e-17 % 2pi rounds to 2pi itself; the pushed position must stay in [0, 2pi)
        cloud = single_cloud([[-1e-17, 1.0]], [[0.0, 0.0]])
        stepped = flow_vm_step(cloud, frozen(SpectralField.zeros(2, K, 2)), 0.3, 0.1)
        assert (stepped.x_vm >= 0).all() and (stepped.x_vm < TWO_PI).all()

    def test_half_box_forces_match_naive_trajectories(self, monkeypatch):
        # 20 coupled steps on the bundled small2d data: trajectories pushed by
        # the half-box evaluate_at stay on those pushed by the naive sum
        from vmvp.config import build_em_state, build_ensemble, load_config, resolve_config_path
        from vmvp.multifluid import vm_step_full

        cfg = load_config(resolve_config_path("bundled/small2d"))
        eps = cfg.eps_list[0]
        ens, em = build_ensemble(cfg, eps), build_em_state(cfg, eps)
        cloud0 = sample_cloud(build_ensemble(cfg, 0.0), cfg.n_particles, cfg.seed)
        stages = []
        for _ in range(20):
            res = vm_step_full(ens, em, cfg.dt)
            stages.append(res.stage_fields)
            ens, em = res.ensemble, res.em

        def push():
            cloud = cloud0
            for fields in stages:
                cloud = flow_vm_step(cloud, fields, eps, cfg.dt)
            return cloud

        fast = push()
        monkeypatch.setattr(SpectralField, "evaluate_at", evaluate_at_naive)
        naive = push()
        assert np.abs(torus_wrap(fast.x_vm - naive.x_vm)).max() < 1e-13
        assert np.abs(fast.xi_vm - naive.xi_vm).max() < 1e-13
        assert np.abs(fast.x_vm - cloud0.x_vm).max() > 1e-6  # the particles did move

    def test_3d_push_with_varying_fields_matches_the_former_loop(self):
        # oracle: a 4-stage loop written out by hand with np.cross for v x B;
        # the shared push must give the same floats with non-constant E and B
        from vmvp.multifluid import RK4_NODES, RK4_WEIGHTS
        from vmvp.spectral import stack

        rng = np.random.default_rng(3)
        d, k, n, eps, dt = 3, 3, 40, 0.3, 0.02
        e_st = [SpectralField.from_grid(rng.normal(size=(d, 14, 14, 14)), k) for _ in range(4)]
        b_st = [SpectralField.from_grid(rng.normal(size=(d, 14, 14, 14)), k) for _ in range(4)]
        cloud = single_cloud(rng.uniform(0, TWO_PI, (n, d)), rng.normal(size=(n, d)))

        def former_step(x, xi):
            kx, kxi = [None] * 4, [None] * 4
            for i, ci in enumerate(RK4_NODES):
                xs = x if i == 0 else x + dt * ci * kx[i - 1]
                xis = xi if i == 0 else xi + dt * ci * kxi[i - 1]
                v = xis / np.sqrt(1.0 + eps ** 2 * (xis ** 2).sum(axis=1, keepdims=True))
                bundle = stack([e_st[i], b_st[i]]).evaluate_at(xs)
                kx[i], kxi[i] = v, bundle[:, :d] + eps * np.cross(v, bundle[:, d:])
            x_new = x + dt * sum(w * s for w, s in zip(RK4_WEIGHTS, kx))
            xi_new = xi + dt * sum(w * s for w, s in zip(RK4_WEIGHTS, kxi))
            return x_new % TWO_PI, xi_new

        x, xi = cloud.x_vm, cloud.xi_vm
        for _ in range(3):
            cloud = flow_vm_step(cloud, tuple(zip(e_st, b_st)), eps, dt)
            x, xi = former_step(x, xi)
        assert np.array_equal(cloud.x_vm, x)
        assert np.array_equal(cloud.xi_vm, xi)
        assert np.abs(torus_wrap(cloud.x_vm - cloud.x0)).max() > 1e-3  # the particles did move


class TestConsistency:
    def test_t0_residual_zero(self):
        ens = make_ensemble([
            (0.5, [([0, 0], 1.0), ([1, 0], 0.04)], [(0, [0, 1], 0.1)]),
            (0.5, [([0, 0], 1.0)], [(1, [1, 0], -0.05)]),
        ])
        cloud = sample_cloud(ens, 512, seed=3)
        rep = consistency_check(cloud, ens, system="vm")
        assert rep.residual_max < 1e-12

    def test_free_streaming_stays_consistent(self):
        c = 0.4
        ens = make_ensemble([(1.0, [([0, 0], 1.0)], [(0, [0, 0], c)])], eps=0.0)
        cloud = sample_cloud(ens, 256, seed=4)
        stages = frozen(SpectralField.zeros(2, K, 2))
        from vmvp.multifluid import vp_step_full

        cur = ens
        for _ in range(20):
            cloud = flow_vp_step(cloud, stages, 0.01)
            cur = vp_step_full(cur, 0.01).ensemble
        rep = consistency_check(cloud, cur, system="vp")
        assert rep.residual_max < 1e-10

    def test_density_score_monte_carlo_scaling(self):
        ens = make_ensemble([(1.0, [([0, 0], 1.0), ([1, 0], 0.05)], [])])
        scores = []
        for n in (1024, 16384):
            cloud = sample_cloud(ens, n, seed=5)
            scores.append(consistency_check(cloud, ens, system="vp").density_rms)
        ratio = scores[0] / scores[1]
        assert 2.0 < ratio < 8.0  # ~ sqrt(16) = 4


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        ens = make_ensemble([(1.0, [([0, 0], 1.0)], [(0, [0, 0], 0.2)])])
        cloud = sample_cloud(ens, 32, seed=9)
        cloud = flow_vp_step(cloud, frozen(SpectralField.zeros(2, K, 2)), 0.1)
        p = tmp_path / "c.cloud"
        save_cloud(cloud, p)
        back = load_cloud(p)
        assert back.t == cloud.t
        for name in ("x0", "xi0", "weights", "x_vp", "xi_vp", "x_vm", "xi_vm", "phase_idx"):
            assert np.array_equal(getattr(back, name), getattr(cloud, name))

    @pytest.mark.parametrize("cut", [1, 8, 200])
    def test_truncated_or_padded_file_rejected(self, tmp_path, cut):
        ens = make_ensemble([(1.0, [([0, 0], 1.0)], [(0, [0, 0], 0.2)])])
        p = tmp_path / "c.cloud"
        save_cloud(sample_cloud(ens, 10, seed=9), p)
        data = p.read_bytes()
        p.write_bytes(data[:-cut])
        with pytest.raises(ValidationError):
            load_cloud(p)
        p.write_bytes(data + b"\0" * cut)
        with pytest.raises(ValidationError):
            load_cloud(p)

    @pytest.mark.parametrize("header", [
        b'{"format": "vmvp-cloud-v1", "n": -1, "dim": 2, "seed": 0, "t": 0.0}',
        b'{"format": "vmvp-cloud-v1", "n": 1, "dim": 2, "seed": 0}',
        b'{"format": "vmvp-cloud-v2", "n": 0, "dim": 2, "seed": 0, "t": 0.0}',
        b'{"format":"vmvp-cloud-v1","n":"1"}',
        b"\xff\xfe",
        b"not json",
        b"[1]",
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        p = tmp_path / "c.cloud"
        p.write_bytes(header + b"\n")
        with pytest.raises(ValidationError):
            load_cloud(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_cloud(tmp_path / "absent.cloud")

    def test_replay_q(self, tmp_path):
        ens = make_ensemble([(1.0, [([0, 0], 1.0)], [(0, [0, 0], 0.2)])])
        cloud = sample_cloud(ens, 16, seed=10)
        paths = []
        stages = frozen(-gradient(SpectralField.from_modes(2, K, 1, [(0, [1, 0], 0.2)])))
        for i in range(3):
            path = tmp_path / f"ck{i}.cloud"
            save_cloud(cloud, path)
            paths.append(path)
            cloud = flow_vp_step(cloud, stages, 0.05)
        series = replay_coupling(paths)
        assert [t for t, _ in series] == pytest.approx([0.0, 0.05, 0.10])
        assert series[0][1] == 0.0
        assert series[2][1] > 0.0
