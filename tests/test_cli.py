import json
import re
from pathlib import Path

import numpy as np
import pytest

from vmvp.cli import main
from vmvp.config import load_config, resolve_config_path, save_config
from vmvp.lagrangian import ParticleCloud, save_cloud


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    cfg = load_config(resolve_config_path("bundled/small2d"))
    cfg.t_final = 0.01
    cfg.n_particles = 64
    cfg.w2_subsample = 64
    cfg.snapshot_every = 5
    cfg.bootstrap_reps = 4
    cfg.output_dir = str(tmp_path / "out")
    cfg.validate()
    p = tmp_path / "tiny.cfg"
    save_config(cfg, p)
    return p


def small2d_with(tmp_path, key, value):
    text = resolve_config_path("bundled/small2d").read_text(encoding="utf-8")
    p = tmp_path / "edited.cfg"
    p.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M), encoding="utf-8")
    return p


class TestExitCodes:
    def test_verify_bundled(self):
        assert main(["verify", "--config", "bundled/small2d"]) == 0

    def test_missing_config(self):
        assert main(["simulate", "--config", "/no/such/file.cfg"]) == 2

    def test_unknown_flag(self):
        assert main(["simulate", "--config", "bundled/small2d", "--bogus"]) == 2

    def test_sweep_too_few_eps(self, tiny_cfg_path):
        assert main(["sweep", "--config", str(tiny_cfg_path), "--eps", "0.2,0.1"]) == 2

    @pytest.mark.parametrize("eps", ["0.1,x,0.3", "2,3,4"])
    def test_sweep_bad_eps_rejected_before_any_step(self, tiny_cfg_path, monkeypatch, eps):
        monkeypatch.setattr("vmvp.harness.run_sweep", lambda *a, **k: pytest.fail("the sweep started"))
        assert main(["sweep", "--config", str(tiny_cfg_path), "--eps", eps]) == 2

    @pytest.mark.parametrize("command", ["simulate", "ck"])
    @pytest.mark.parametrize("key,value", [
        ("n_particles", 0), ("w2_subsample", 0), ("snapshot_every", 0), ("snapshot_every", -3), ("ck_n_time", 0),
        ("seed", -5), ("cutoff", -1), ("bootstrap_reps", -1), ("ck_n_iters", -1),
    ])
    def test_integer_below_its_floor(self, tmp_path, key, value, command):
        p = small2d_with(tmp_path, key, value)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    def test_simulate_eps_override_checked_before_any_step(self, tiny_cfg_path, monkeypatch):
        monkeypatch.setattr("vmvp.harness.run_pair", lambda *a, **k: pytest.fail("the run started"))
        assert main(["simulate", "--config", str(tiny_cfg_path), "--eps", "5"]) == 2

    def test_mode_vm_rejected(self, tiny_cfg_path, monkeypatch):
        # simulate runs the VP side alone or a pair; a VM-only run does not exist
        monkeypatch.setattr("vmvp.harness.run_pair", lambda *a, **k: pytest.fail("the run started"))
        assert main(["simulate", "--config", str(tiny_cfg_path), "--mode", "vm"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_mode_sweep_rejected(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr("vmvp.harness.run_pair", lambda *a, **k: pytest.fail("the run started"))
        monkeypatch.setattr("vmvp.harness.run_sweep", lambda *a, **k: pytest.fail("the sweep started"))
        p = small2d_with(tmp_path, "mode", "sweep")
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    def test_unparsable_config_value(self, tmp_path):
        text = resolve_config_path("bundled/ck2d").read_text(encoding="utf-8")
        assert "\ncutoff = 8\n" in text
        p = tmp_path / "bad.cfg"
        p.write_text(text.replace("\ncutoff = 8\n", "\ncutoff = eight\n"), encoding="utf-8")
        assert main(["verify", "--config", str(p)]) == 2

    def test_malformed_ini(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("no section header\n", encoding="utf-8")
        assert main(["verify", "--config", str(p)]) == 2

    def test_truncated_cloud(self, tmp_path):
        rng = np.random.default_rng(0)
        x, xi = rng.uniform(0, 6, (10, 2)), rng.standard_normal((10, 2))
        cloud = ParticleCloud(x, xi, np.full(10, 0.1), np.zeros(10, dtype=int), x, xi, x, xi, seed=1)
        good, bad = tmp_path / "a.cloud", tmp_path / "b.cloud"
        save_cloud(cloud, good)
        bad.write_bytes(good.read_bytes()[:-200])  # 5 of the 20 xi_vm values left
        assert main(["wasserstein", str(good), str(good)]) == 0
        assert main(["wasserstein", str(good), str(bad)]) == 2

    def test_wasserstein_dimension_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        for d in (2, 3):
            x, xi = rng.uniform(0, 6, (10, d)), rng.standard_normal((10, d))
            paths.append(tmp_path / f"d{d}.cloud")
            save_cloud(ParticleCloud(x, xi, np.full(10, 0.1), np.zeros(10, dtype=int), x, xi, x, xi, seed=1), paths[-1])
        assert main(["wasserstein", str(paths[0]), str(paths[1])]) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["x_vm", "xi_vm"])
    @pytest.mark.parametrize("n_other", [10, 12])  # equal sizes go to the assignment, unequal ones to the LP
    def test_wasserstein_non_finite_coordinate(self, tmp_path, bad, block, n_other):
        rng = np.random.default_rng(2)
        paths = []
        for n in (10, n_other):
            x, xi = rng.uniform(0, 6, (n, 2)), rng.standard_normal((n, 2))
            cloud = ParticleCloud(x, xi, np.full(n, 1 / n), np.zeros(n, dtype=int), x, xi, x.copy(), xi.copy(), seed=1)
            paths.append(tmp_path / f"{len(paths)}.cloud")
            save_cloud(cloud, paths[-1])
        assert main(["wasserstein", str(paths[0]), str(paths[1])]) == 0
        getattr(cloud, block)[3, 1] = bad
        save_cloud(cloud, paths[1])
        assert main(["wasserstein", str(paths[0]), str(paths[1])]) == 2

    @pytest.mark.parametrize("command", ["simulate", "ck"])
    @pytest.mark.parametrize("key,value", [("alpha", "nan"), ("xi_modes", "\n\t0 0 0 nan 0.0")])
    def test_non_finite_config_value(self, tmp_path, key, value, command):
        p = small2d_with(tmp_path, key, value)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("eta", ["-0.25", "0"])
    def test_ck_eta_not_positive(self, tmp_path, eta):
        text = resolve_config_path("bundled/ck2d").read_text(encoding="utf-8")
        p = tmp_path / "eta.cfg"
        p.write_text(re.sub(r"^eta = .*$", f"eta = {eta}", text, count=1, flags=re.M), encoding="utf-8")
        assert main(["ck", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("argv,stub", [
        (["simulate", "--config", "bundled/small2d"], "vmvp.harness.run_pair"),
        (["simulate", "--config", "bundled/small2d", "--mode", "vp"], "vmvp.multifluid.vp_step_full"),
        (["sweep", "--config", "bundled/small2d", "--eps", "0.4,0.2,0.1"], "vmvp.harness.run_sweep"),
        (["ck", "--config", "bundled/ck2d"], "vmvp.multifluid.ck_iterate"),
        (["verify", "--config", "bundled/small2d"], "vmvp.harness.verify_suite"),
    ])
    def test_unwritable_output_path_rejected_before_any_step(self, tmp_path, monkeypatch, capsys, argv, stub):
        # the output path runs through a regular file, so no directory can be made there
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        monkeypatch.setattr(stub, lambda *a, **k: pytest.fail("a step ran"))
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: cannot write output path {out}: ")
        assert "Traceback" not in err

    def test_verify_table_path_that_is_a_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("vmvp.harness.verify_suite", lambda *a, **k: pytest.fail("a check ran"))
        assert main(["verify", "--config", "bundled/small2d", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"validation error: cannot write output path {tmp_path}: it is a directory\n"

    @pytest.mark.parametrize("eps", ["0.2,0.2,0.2", "0.4,0.2,0.20000001"])  # both name two runs eps_0.2
    def test_sweep_eps_names_collide(self, tiny_cfg_path, tmp_path, monkeypatch, eps):
        monkeypatch.setattr("vmvp.harness._run_vp_side", lambda *a, **k: pytest.fail("the sweep started"))
        assert main(["sweep", "--config", str(tiny_cfg_path), "--eps", eps, "--out", str(tmp_path / "out")]) == 2


def save_clouds(tmp_path, *clouds):
    """Each (n, far) as a saved cloud of n points whose first momentum is (far, 0); returns the paths."""
    rng = np.random.default_rng(len(clouds))
    paths = []
    for n, far in clouds:
        x, xi = rng.uniform(0, 6, (n, 2)), rng.standard_normal((n, 2))
        xi[:1] = far, 0.0
        paths.append(tmp_path / f"{len(paths)}.cloud")
        save_cloud(ParticleCloud(x, xi, np.full(n, 1 / max(n, 1)), np.zeros(n, dtype=int), x, xi, x, xi, seed=1), paths[-1])
    return [str(p) for p in paths]


class TestWassersteinInputs:
    @pytest.mark.parametrize("n", [3, 200])  # the dense solve, and the sparse one above 2 AUCTION_K points
    @pytest.mark.parametrize("far_a,far_b", [
        (1e308, -1e308), (1e308, 0.0), (1e200, 0.0), (1e160, 0.0), (1e160, -1e160), (1e200, 1e200),
    ])
    def test_momenta_whose_squared_gaps_overflow(self, tmp_path, n, far_a, far_b):
        assert main(["wasserstein", *save_clouds(tmp_path, (n, far_a), (n, far_b))]) == 2

    @pytest.mark.parametrize("far", [1.2e154, 1.3e154])
    def test_momenta_whose_sums_with_prices_overflow(self, tmp_path, far):
        # the squared gaps are floats, but the sparse solve's costs plus prices would not be
        assert main(["wasserstein", *save_clouds(tmp_path, (200, far), (200, 0.0))]) == 2

    def test_momenta_whose_squared_gaps_overflow_unequal_sizes(self, tmp_path):
        assert main(["wasserstein", *save_clouds(tmp_path, (10, 1e200), (12, 0.0))]) == 2

    def test_empty_cloud(self, tmp_path):
        assert main(["wasserstein", *save_clouds(tmp_path, (0, 0.0), (0, 0.0))]) == 2


class TestSimulate:
    def test_pair_run_writes_outputs(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "run_out"
        rc = main(["simulate", "--config", str(tiny_cfg_path), "--mode", "pair", "--out", str(out)])
        assert rc == 0
        assert (out / "steps.csv").exists()
        assert (out / "snapshots.csv").exists()
        assert (out / "report.json").exists()
        assert sorted((out / "checkpoints").glob("*.cloud"))

    def test_vp_mode(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "vp_out"
        rc = main(["simulate", "--config", str(tiny_cfg_path), "--mode", "vp", "--out", str(out)])
        assert rc == 0
        assert (out / "vp_final.ens").exists()

    def test_vp_mode_abort_names_its_step_and_dumps_the_state(self, tiny_cfg_path, tmp_path, monkeypatch, capsys):
        # fault injection: the fourth step (step 3) aborts as a positivity failure does
        from vmvp import multifluid
        from vmvp.errors import NumericalAbort

        real_step, calls = multifluid.vp_step_full, []

        def fails_on_step_3(ens, dt):
            calls.append(dt)
            if len(calls) == 4:
                raise NumericalAbort("phase 0 density negative on the grid: min = -1.000e-03")
            return real_step(ens, dt)

        monkeypatch.setattr(multifluid, "vp_step_full", fails_on_step_3)
        out = tmp_path / "vp_abort"
        rc = main(["simulate", "--config", str(tiny_cfg_path), "--mode", "vp", "--out", str(out)])
        assert rc == 3
        assert "numerical abort: step 3, t = 0.003: phase 0 density negative" in capsys.readouterr().err
        dumped = multifluid.load_ensemble(out / "abort_state.ens")
        assert dumped.eps == 0.0 and dumped.mu.size == 2
        assert not (out / "vp_final.ens").exists()

    @pytest.mark.parametrize("command", [["simulate", "--mode", "pair"], ["sweep", "--eps", "0.4,0.2,0.1"]])
    def test_vp_side_abort_names_its_step_and_dumps_the_state(self, command, tiny_cfg_path, tmp_path, monkeypatch, capsys):
        # fault injection: the VP side's fourth step (step 3) aborts with a state attached
        from vmvp import harness, multifluid
        from vmvp.errors import NumericalAbort

        real_step, calls = harness.vp_step_full, []

        def fails_on_step_3(ens, dt):
            calls.append(dt)
            if len(calls) == 4:
                raise NumericalAbort("phase 0 density negative on the grid: min = -1.000e-03")
            return real_step(ens, dt)

        monkeypatch.setattr(harness, "vp_step_full", fails_on_step_3)
        out = tmp_path / "vp_side_abort"
        rc = main(command + ["--config", str(tiny_cfg_path), "--out", str(out)])
        assert rc == 3
        assert "numerical abort: step 3, t = 0.003: phase 0 density negative" in capsys.readouterr().err
        dumped = multifluid.load_ensemble(out / "abort_state.ens")
        assert dumped.eps == 0.0 and dumped.mu.size == 2
        assert not (out / "report.json").exists()


def nan_rhs_on_call(module, name, k, monkeypatch):
    """Fault injection: the k-th call of the step `module.name` meets a NaN velocity in `_phase_flux`.

    That step raises the right-hand side's own non-finite abort; returns the
    ensembles the calls started from.
    """
    from vmvp import multifluid

    real_step, real_velocity, started = getattr(module, name), multifluid._velocity_grid, []

    def velocity(xi, eps, axis=0):
        v = real_velocity(xi, eps, axis)
        return v * np.nan if len(started) == k else v

    def step(ens, *args, **kwargs):
        started.append(ens)
        return real_step(ens, *args, **kwargs)

    monkeypatch.setattr(multifluid, "_velocity_grid", velocity)
    monkeypatch.setattr(module, name, step)
    return started


class TestNonFiniteRhsAbort:
    @pytest.mark.parametrize("mode,side", [("pair", "vm_step_full"), ("vp", "vp_step_full")])
    def test_dumps_the_state_its_step_started_from(self, mode, side, tiny_cfg_path, tmp_path, monkeypatch, capsys):
        from vmvp import harness, multifluid

        started = nan_rhs_on_call(harness if mode == "pair" else multifluid, side, 4, monkeypatch)
        out = tmp_path / "nan_rhs"
        assert main(["simulate", "--config", str(tiny_cfg_path), "--mode", mode, "--out", str(out)]) == 3
        # the whole line, so a second time prefix fails it
        want = "numerical abort: step 3, t = 0.003: non-finite values in phase right-hand side\n"
        assert capsys.readouterr().err == want
        assert len(started) == 4
        dumped, start = multifluid.load_ensemble(out / "abort_state.ens"), started[-1]
        assert dumped.eps == start.eps
        for name in ("mu", "rho", "xi"):
            assert (getattr(dumped, name) == getattr(start, name)).all()


class TestCsvOutputs:
    def test_every_csv_parses_as_numbers(self, tiny_cfg_path, tmp_path):
        run, sweep = tmp_path / "run", tmp_path / "sweep"
        assert main(["simulate", "--config", str(tiny_cfg_path), "--out", str(run)]) == 0
        assert main(["sweep", "--config", str(tiny_cfg_path), "--eps", "0.4,0.2,0.1", "--out", str(sweep)]) == 0
        paths = sorted(run.rglob("*.csv")) + sorted(sweep.rglob("*.csv"))
        assert {p.name for p in paths} == {"steps.csv", "snapshots.csv", "sweep.csv"}
        for p in paths:
            np.loadtxt(p, delimiter=",", skiprows=1)


class TestSweepCli:
    def test_sweep_writes_summary(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "sweep_out"
        rc = main(["sweep", "--config", str(tiny_cfg_path), "--eps", "0.4,0.2,0.1", "--out", str(out)])
        assert rc == 0
        sweep = json.loads((out / "sweep.json").read_text())
        assert set(sweep) == {
            "eps_values", "sup_w2", "kappa_measured", "r_squared",
            "monotone", "partial", "kappa_config", "positive_rate_confirmed",
        }
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,sup_w2,sup_q,osgood_c,aborted"
        assert len(lines) == 4


    @pytest.mark.parametrize("eps", ["0.4,0.2,0.1", "0.4,0.2,0.1,0.05"])
    def test_sweep_fits_only_the_pairs_that_reached_t_final(self, eps, tiny_cfg_path, tmp_path, monkeypatch, capsys):
        # fault injection: the eps = 0.2 pair aborts at its first step, so its sup W2 is W2(t = 0) = 0
        from vmvp import harness
        from vmvp.errors import NumericalAbort

        step = harness.vm_step_full

        def aborting(ens, em, dt, **kw):
            if ens.eps == 0.2:
                raise NumericalAbort("validity gate violated: injected")
            return step(ens, em, dt, **kw)

        monkeypatch.setattr(harness, "vm_step_full", aborting)
        out = tmp_path / "sweep_abort"
        assert main(["sweep", "--config", str(tiny_cfg_path), "--eps", eps, "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not strict JSON")

        sweep = json.loads((out / "sweep.json").read_text(), parse_constant=refuse)
        assert sweep["partial"] and sweep["sup_w2"][1] == 0.0
        printed = capsys.readouterr().out
        if eps.count(",") == 2:
            assert sweep["kappa_measured"] is None and sweep["r_squared"] is None
            assert not sweep["positive_rate_confirmed"]
            assert "kappa_measured=null: 2 of 3 pairs reached t_final" in printed
        else:
            done = [0, 2, 3]
            kappa, r2 = harness.fit_kappa([sweep["eps_values"][i] for i in done], [sweep["sup_w2"][i] for i in done])
            assert sweep["kappa_measured"] == kappa and sweep["r_squared"] == r2
            assert f"kappa_measured={kappa:.4f}" in printed


class TestCkCli:
    def test_ck_report(self, tmp_path):
        cfg = load_config(resolve_config_path("bundled/ck2d"))
        cfg.ck_n_iters = 4
        cfg.ck_n_time = 32
        cfg.output_dir = str(tmp_path / "ck_out")
        p = tmp_path / "ck.cfg"
        save_config(cfg, p)
        rc = main(["ck", "--config", str(p)])
        assert rc == 0
        payload = json.loads((Path(cfg.output_dir) / "ck.json").read_text())
        assert payload["n_iters"] == 4
        assert not payload["diverged"]


def save_zero_dimensional_cloud(tmp_path):
    """A checkpoint of two points with no position or momentum axis: weights 0.5, 0.5, phase labels 0, 0."""
    (tmp_path / "ck").mkdir()
    path = tmp_path / "ck" / "a.cloud"
    header = {"format": "vmvp-cloud-v1", "n": 2, "dim": 0, "seed": 1, "t": 0.0}
    path.write_bytes((json.dumps(header) + "\n").encode() + np.full(2, 0.5).tobytes() + np.zeros(2, np.int64).tobytes())
    return path


class TestWassersteinAndReplay:
    def test_wasserstein_between_checkpoints(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "wsrun"
        assert main(["simulate", "--config", str(tiny_cfg_path), "--out", str(out)]) == 0
        ckpts = sorted((out / "checkpoints").glob("*.cloud"))
        assert len(ckpts) >= 2
        rc = main(["wasserstein", str(ckpts[0]), str(ckpts[-1]), "--side", "vm"])
        assert rc == 0
        rc = main(["wasserstein", str(ckpts[0]), str(ckpts[0]), "--position-only"])
        assert rc == 0

    def test_report_replays_q(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "rprun"
        assert main(["simulate", "--config", str(tiny_cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["report", "--from-checkpoints", str(out / "checkpoints")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,Q"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def test_report_missing_args(self):
        assert main(["report"]) == 2

    @pytest.mark.parametrize("side", ["vm", "vp"])
    def test_zero_dimensional_checkpoint_wasserstein(self, tmp_path, side):
        path = save_zero_dimensional_cloud(tmp_path)
        assert main(["wasserstein", str(path), str(path), "--side", side]) == 2

    def test_zero_dimensional_checkpoint_report(self, tmp_path):
        path = save_zero_dimensional_cloud(tmp_path)
        assert main(["report", "--from-checkpoints", str(path.parent)]) == 2

    @pytest.mark.parametrize("bad", ["nan", "negative", "unnormalised"])
    def test_report_checks_the_checkpoint_weights(self, tmp_path, bad):
        rng = np.random.default_rng(5)
        x, xi = rng.uniform(0, 6, (10, 2)), rng.standard_normal((10, 2))
        w = np.full(10, 0.1)
        w[3], w[4] = {"nan": (np.nan, 0.1), "negative": (-0.1, 0.3), "unnormalised": (0.2, 0.1)}[bad]
        (tmp_path / "ck").mkdir()
        save_cloud(ParticleCloud(x, xi, w, np.zeros(10, dtype=int), x, xi, x, xi + 0.1, seed=1), tmp_path / "ck" / "a.cloud")
        assert main(["report", "--from-checkpoints", str(tmp_path / "ck")]) == 2

    def test_report_refuses_momenta_that_wasserstein_refuses(self, tmp_path, capsys):
        # one VM momentum 1e200 away from its VP partner: the squared gap overflows
        rng = np.random.default_rng(5)
        x, xi = rng.uniform(0, 6, (10, 2)), rng.standard_normal((10, 2))
        xi_vm = xi.copy()
        xi_vm[3, 0] = 1e200
        (tmp_path / "ck").mkdir()
        path = tmp_path / "ck" / "a.cloud"
        save_cloud(ParticleCloud(x, xi, np.full(10, 0.1), np.zeros(10, dtype=int), x, xi, x, xi_vm, seed=1), path)
        assert main(["wasserstein", str(path), str(path), "--side", "vm"]) == 2
        capsys.readouterr()
        assert main(["report", "--from-checkpoints", str(tmp_path / "ck")]) == 2
        assert "inf" not in capsys.readouterr().out
