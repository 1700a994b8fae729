import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import cumint_scipy, duhamel_series_stepwise, ratios_below, vm_rhs
from vmvp.errors import NumericalAbort, ValidationError
from vmvp.fields import assemble_b, electric_coeffs, init_em_state
from vmvp.multifluid import (
    GATE_BOUND,
    PhaseEnsemble,
    _velocity_grid,
    ck_iterate,
    check_validity,
    gate_margin,
    load_ensemble,
    moments,
    rk4_step,
    save_ensemble,
    total_energy,
    vm_step_full,
    vp_step_full,
)
from vmvp.spectral import (
    AnalyticNormParams,
    SpectralField,
    gradient,
    mean,
    solve_poisson,
)


def make_phase(dim, K, mu, rho_entries, xi_entries):
    """One phase as (mu, rho, xi), the fields as SpectralFields."""
    rho = SpectralField.from_modes(dim, K, 1, [(0, kv, a) for kv, a in rho_entries])
    xi = SpectralField.from_modes(dim, K, dim, [(c, kv, a) for c, kv, a in xi_entries])
    return mu, rho, xi


def ensemble(phases, eps):
    """The PhaseEnsemble of (mu, rho, xi) phases, the fields stacked."""
    mus, rhos, xis = zip(*phases)
    return PhaseEnsemble(mus, np.stack([r.coeffs for r in rhos]), np.stack([x.coeffs for x in xis]), eps)


def uniform_static(dim=2, K=6, eps=0.0):
    ph = make_phase(dim, K, 1.0, [([0] * dim, 1.0)], [])
    return ensemble((ph,), eps)


def two_phase_2d(K=8, eps=0.2, rho_amp=0.08, xi_mean=0.25, xi_amp=0.1):
    """Mirror-symmetric pair: total mean current vanishes by construction."""
    p1 = make_phase(
        2, K, 0.5,
        [([0, 0], 1.0), ([1, 0], rho_amp / 2)],
        [(0, [0, 0], xi_mean), (0, [0, 1], -1j * xi_amp / 2), (1, [1, 0], -1j * xi_amp / 4)],
    )
    p2 = make_phase(
        2, K, 0.5,
        [([0, 0], 1.0), ([1, 0], rho_amp / 2)],
        [(0, [0, 0], -xi_mean), (0, [0, 1], 1j * xi_amp / 2), (1, [1, 0], 1j * xi_amp / 4)],
    )
    return ensemble((p1, p2), eps)


def well_prepared_em(ens):
    rho = ens.rho_total()
    phi = solve_poisson(rho)
    e0 = -1.0 * gradient(phi)
    b0 = SpectralField.zeros(ens.dim, ens.cutoff, 1 if ens.dim == 2 else 3)
    return init_em_state(rho, np.zeros(ens.dim), e0, b0)


class TestEnsembleInvariants:
    def test_weights_must_sum_to_one(self):
        ph = make_phase(2, 4, 0.7, [([0, 0], 1.0)], [])
        with pytest.raises(ValidationError, match="sum to 1"):
            ensemble((ph,), 0.0)

    def test_neutrality_enforced(self):
        ph = make_phase(2, 4, 1.0, [([0, 0], 1.2)], [])
        with pytest.raises(ValidationError, match="mass"):
            ensemble((ph,), 0.0)

    def test_arrays_are_read_only_copies(self):
        mu, rho, xi = make_phase(2, 4, 1.0, [([0, 0], 1.0)], [(0, [1, 0], 0.1)])
        r, x = rho.coeffs[None].copy(), xi.coeffs[None].copy()
        ens = PhaseEnsemble([mu], r, x, 0.0)
        r[0, 0, 4, 4] = 2.0
        assert ens.rho[0, 0, 4, 4] == 1.0
        for a in (ens.mu, ens.rho, ens.xi):
            assert not a.flags.writeable

    @pytest.mark.parametrize("rho_shape,xi_shape", [
        ((1, 1, 9, 8), (1, 2, 9, 8)),   # even J
        ((1, 1, 9, 7), (1, 2, 9, 7)),   # unequal axes
        ((1, 1, 9, 9), (1, 1, 9, 9)),   # xi with one component in d = 2
        ((2, 1, 9, 9), (2, 2, 9, 9)),   # two phases, one weight
        ((1, 1), (1, 0)),               # no position axis
    ])
    def test_stacked_shapes_checked(self, rho_shape, xi_shape):
        rho = np.zeros(rho_shape, dtype=complex)
        rho[(0, 0) + (rho_shape[-1] // 2,) * (len(rho_shape) - 2)] = 1.0
        with pytest.raises(ValidationError, match="phases need"):
            PhaseEnsemble([1.0], rho, np.zeros(xi_shape, dtype=complex), 0.0)

    def test_gate_margin_and_abort(self):
        ph = make_phase(2, 4, 1.0, [([0, 0], 1.0)], [(0, [0, 0], 5.0)])
        ens = ensemble((ph,), 0.3)
        assert gate_margin(ens, 1.1) == pytest.approx(1.5)
        assert gate_margin(ens, 1.1) > GATE_BOUND
        with pytest.raises(NumericalAbort, match="gate"):
            check_validity(ens, 1.1)

    def test_stacked_sums_match_the_per_phase_loops(self):
        from vmvp.spectral import analytic_norm

        ens = two_phase_2d(eps=0.3)
        loop_rho = sum((mu * r for mu, r in zip(ens.mu, ens.rho)), np.zeros_like(ens.rho[0]))
        assert np.abs(ens.rho_total().coeffs - loop_rho).max() <= 4 * np.finfo(float).eps * np.abs(loop_rho).max()
        loop_gate = 0.3 * max(analytic_norm(SpectralField(2, 8, x), 1.1) for x in ens.xi)
        assert gate_margin(ens, 1.1) == pytest.approx(loop_gate, rel=4 * np.finfo(float).eps)

    def test_positivity_abort(self):
        ph = make_phase(2, 4, 1.0, [([0, 0], 1.0), ([1, 0], 0.8)], [])
        ens = ensemble((ph,), 0.0)
        with pytest.raises(NumericalAbort, match="negative"):
            check_validity(ens)

    def test_nan_weight_and_eps_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            ensemble((make_phase(2, 4, np.nan, [([0, 0], 1.0)], []),), 0.0)
        ph = make_phase(2, 4, 1.0, [([0, 0], 1.0)], [])
        with pytest.raises(ValidationError, match="nonnegative"):
            ensemble((ph,), np.nan)
        with pytest.raises(ValidationError, match="mass"):
            ensemble((make_phase(2, 4, 1.0, [([0, 0], np.nan)], []),), 0.0)

    def test_eps_range_is_the_ensembles(self):
        # the ensemble's eps is the one eps of a state, so it is refused outside [0, 1] here
        ph = make_phase(2, 4, 1.0, [([0, 0], 1.0)], [])
        for bad in (1.5, np.nan, -0.1):
            with pytest.raises(ValidationError, match="at most 1"):
                ensemble((ph,), bad)
        for ok in (0.0, 1.0):
            assert ensemble((ph,), ok).eps == ok

    @pytest.mark.parametrize("field,match", [("xi", "gate"), ("rho", "negative")])
    def test_nan_coefficient_aborts_validity_check(self, field, match):
        ens = two_phase_2d(K=4)
        coeffs = getattr(ens, field).copy()
        coeffs[0, 0, 5, 4] = np.nan  # a k != 0 mode of phase 0, so the mean mass stays 1
        ens = replace(ens, **{field: coeffs})
        with pytest.raises(NumericalAbort, match=match):
            check_validity(ens)


class TestRelativisticVelocity:
    def test_eps_zero_identity(self):
        xi = SpectralField.from_modes(2, 4, 2, [(0, [1, 0], 0.3)]).to_grid()
        assert _velocity_grid(xi, 0.0) is xi

    def test_constant_momentum(self):
        xi = SpectralField.constant(3, 3, [1.0, 0.0, 0.0])
        v = SpectralField.from_grid(_velocity_grid(xi.to_grid(), 1.0), 3)
        assert mean(v)[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        assert abs(mean(v)[1]) < 1e-14

    def test_pointwise_quadratic_bound(self):
        rng = np.random.default_rng(3)
        K, eps = 6, 0.4
        entries = [(c, [int(k1), int(k2)], complex(a, b) * 0.1)
                   for c, k1, k2, a, b in rng.uniform(-1, 1, (6, 5)) * [1.9, 2, 2, 1, 1]]
        xi = SpectralField.from_modes(2, K, 2, [(int(c) % 2, kv, amp) for c, kv, amp in entries])
        v = SpectralField.from_grid(_velocity_grid(xi.to_grid(), eps), K)
        n = 2 * (2 * K + 1)
        xg = xi.to_grid(n)
        vg = v.to_grid(n)
        xi2 = (xg ** 2).sum(axis=0)
        diff = np.sqrt(((vg - xg) ** 2).sum(axis=0))
        # |v(xi) - xi| <= eps |xi|^2 pointwise, up to the spectral truncation of v
        assert (diff <= eps * xi2 + 1e-8).all()

    def test_gate_enforced(self):
        # v(xi) has no gate of its own: check_validity, run at every step start, holds it
        xi = SpectralField.constant(2, 4, [4.0, 0.0])
        rho = SpectralField.constant(2, 4, 1.0)
        with pytest.raises(NumericalAbort):
            check_validity(ensemble(((1.0, rho, xi),), 0.5))


class TestRhs:
    def test_static_phase(self):
        ens = uniform_static(eps=0.3)
        e = SpectralField.zeros(2, 6, 2)
        b = SpectralField.from_modes(2, 6, 1, [(0, [1, 1], 0.2)])
        (drho, dxi), = vm_rhs(ens, e, b)
        assert np.abs(drho.coeffs).max() < 1e-14
        assert np.abs(dxi.coeffs).max() < 1e-14

    def test_free_uniform_stream(self):
        ph = make_phase(2, 6, 1.0, [([0, 0], 1.0)], [(0, [0, 0], 0.7)])
        ens = ensemble((ph,), 0.0)
        (drho, dxi), = vm_rhs(ens, SpectralField.zeros(2, 6, 2), None)
        assert np.abs(drho.coeffs).max() < 1e-14
        assert np.abs(dxi.coeffs).max() < 1e-14

    def test_eps_zero_matches_vp_force(self):
        ens = two_phase_2d(eps=0.0)
        phi = solve_poisson(ens.rho_total())
        e = -1.0 * gradient(phi)
        rhs = vm_rhs(ens, e, None)
        # electrostatic variant: dxi must equal -(xi.grad)xi + E
        from vmvp.multifluid import _phase_rhs_arrays
        for r, x, (drho, dxi) in zip(ens.rho, ens.xi, rhs):
            dr2, dx2, _, _ = _phase_rhs_arrays(r, x, e.coeffs, None, 0.0, 2, 8)
            assert np.abs(drho.coeffs - dr2).max() == 0.0
            assert np.abs(dxi.coeffs - dx2).max() == 0.0


    def test_batched_kernel_equals_per_phase_calls(self):
        # leading (time slice, phase) axes; e broadcasts over phases, B over both
        from vmvp.multifluid import _phase_rhs_arrays

        K, eps = 6, 0.3
        rng = np.random.default_rng(11)
        shape = (2 * K + 1,) * 2
        rho = np.stack([two_phase_2d(K=K, rho_amp=0.05 * (1 + t), xi_amp=0.1 + 0.02 * t).rho for t in range(3)])
        xi = np.stack([two_phase_2d(K=K, xi_amp=0.1 + 0.02 * t).xi for t in range(3)])
        e = rng.standard_normal((3, 1, 2) + shape) * 0.01
        b_grid = rng.standard_normal((1, 1, 1) + (4 * K + 2,) * 2) * 0.1
        for b in (b_grid, None):
            drho, dxi, flux, _ = _phase_rhs_arrays(rho, xi, e, b, eps, 2, K)
            assert drho.shape == rho.shape and dxi.shape == flux.shape == xi.shape
            for t in range(3):
                for p in range(2):
                    one = _phase_rhs_arrays(rho[t, p], xi[t, p], e[t, 0], None if b is None else b[0, 0], eps, 2, K)
                    assert np.array_equal(one[0], drho[t, p])
                    assert np.array_equal(one[1], dxi[t, p])
                    assert np.array_equal(one[2], flux[t, p])

    def test_kernel_current_is_the_moment_current(self):
        # the mu-weighted flux coefficients are the total current sum mu v(xi) rho,
        # and their k = 0 mode is the mean current of moments()
        from vmvp import spectral as sp
        from vmvp.multifluid import _phase_rhs_arrays

        p1 = make_phase(2, 6, 0.25, [([0, 0], 1.0), ([1, 0], 0.05)], [(0, [0, 0], 0.3), (1, [0, 1], 0.04j)])
        p2 = make_phase(2, 6, 0.75, [([0, 0], 1.0)], [(1, [1, 1], 0.05)])
        ens = ensemble((p1, p2), 0.3)
        r, x, mus = ens.rho, ens.xi, ens.mu
        _, _, flux, _ = _phase_rhs_arrays(r, x, np.zeros_like(x[0]), None, ens.eps, 2, 6)
        kernel_j = np.tensordot(mus, flux, axes=(0, 0))
        g = sp.to_grid(np.concatenate([r, x], axis=1), 2)
        rg, vg = g[:, :1], _velocity_grid(g[:, 1:], ens.eps, axis=1)
        j_total = SpectralField.from_grid((mus[:, None, None, None] * vg * rg).sum(axis=0), 6).coeffs
        assert np.abs(j_total).max() > 1e-3
        assert np.abs(kernel_j - j_total).max() < 1e-15
        j_mean = moments(ens).j_mean
        assert np.abs(j_mean).max() > 1e-3
        assert np.abs(mean(SpectralField(2, 6, kernel_j)) - j_mean).max() < 1e-15

    def test_kernel_aborts_on_non_finite(self):
        from vmvp.multifluid import _phase_rhs_arrays

        ens = two_phase_2d(K=4)
        xi = ens.xi[0].copy()
        xi[0, 4, 4] = np.nan
        with pytest.raises(NumericalAbort):
            _phase_rhs_arrays(ens.rho[0], xi, np.zeros_like(xi), None, 0.0, 2, 4)


class TestRk4Step:
    def test_linear_system_gets_the_degree_four_taylor_polynomial(self):
        lam = np.array([-1.3, 0.7 + 2.0j])
        dt = 0.1
        y0 = (np.array([1.0 + 0.0j, 2.0 - 1.0j]), np.array([[0.5 + 0.0j, -3.0 + 0.25j]]))
        seen = []

        def slope(i, ys):
            seen.append(i)
            return tuple(lam * y for y in ys)

        y1 = rk4_step(y0, slope, dt)
        z = lam * dt
        growth = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        assert seen == [0, 1, 2, 3]
        assert len(y1) == 2
        for y, start in zip(y1, y0):
            assert np.abs(y - growth * start).max() <= 1e-15 * np.abs(growth * start).max()


class TestStepping:
    def test_uniform_fixed_point(self):
        ens = two_phase_2d(eps=0.2, rho_amp=0.0, xi_mean=0.0, xi_amp=0.0)
        em = well_prepared_em(ens)
        res = vm_step_full(ens, em, 1e-2)
        ens2, em2 = res.ensemble, res.em
        assert np.abs(ens2.rho - ens.rho).max() < 1e-12
        assert np.abs(ens2.xi - ens.xi).max() < 1e-12
        assert np.abs(em2.a.coeffs).max() < 1e-12

    def test_vm_step_rejects_eps_zero_and_a_missing_field_state(self):
        # the eps = 0 system is vp_step_full; vm_step_full has no branch for it
        with pytest.raises(ValidationError, match="vp_step_full"):
            vm_step_full(two_phase_2d(eps=0.0), None, 1e-3)
        with pytest.raises(ValidationError, match="EMState"):
            vm_step_full(two_phase_2d(eps=0.2), None, 1e-3)

    def test_gauss_law_holds_after_steps(self):
        # ck2d carries a transverse E0 and a mean B0; E is formed from the current density
        from vmvp.config import build_em_state, build_ensemble, load_config, resolve_config_path
        from vmvp.spectral import divergence

        cfg = load_config(resolve_config_path("bundled/ck2d"))
        eps = cfg.eps_list[0]
        ens, em = build_ensemble(cfg, eps), build_em_state(cfg, eps)
        assert np.abs(em.eps_adot.coeffs).max() > 1e-3 and np.abs(em.mean_b0).max() > 1e-3
        for _ in range(10):
            res = vm_step_full(ens, em, cfg.dt)
            ens, em = res.ensemble, res.em
        rho = ens.rho_total()
        e = SpectralField(2, cfg.cutoff, electric_coeffs(rho.coeffs, em.eps_adot.coeffs, 2))
        gauss = divergence(e).coeffs - (rho - SpectralField.constant(2, cfg.cutoff, 1.0)).coeffs
        assert np.abs(gauss).max() <= 1e-12

    def test_vm_step_matches_vp_step_small_eps(self):
        # one step at eps -> 0 approaches the electrostatic step at rate O(eps)
        base = two_phase_2d(eps=0.0)
        ref = vp_step_full(base, 1e-2).ensemble
        errs = []
        for eps in (0.2, 0.1):
            ens = two_phase_2d(eps=eps)
            em = well_prepared_em(ens)
            stepped = vm_step_full(ens, em, 1e-2).ensemble
            err = np.abs(stepped.xi - ref.xi).max()
            errs.append(err)
        assert errs[1] < errs[0]

    def test_dt_refinement_fourth_order(self):
        ens = two_phase_2d(eps=0.25)
        em = well_prepared_em(ens)
        T = 0.04

        def run(dt):
            e, m = ens, em
            for _ in range(int(round(T / dt))):
                res = vm_step_full(e, m, dt)
                e, m = res.ensemble, res.em
            return e

        fine = run(T / 64)
        errs = []
        for nsteps in (4, 8, 16):
            coarse = run(T / nsteps)
            err = np.abs(coarse.xi - fine.xi).max()
            errs.append(err)
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 3.3 and order2 > 3.3

    def test_mass_per_phase_exact(self):
        ens = two_phase_2d(eps=0.2)
        em = well_prepared_em(ens)
        masses0 = ens.phase_masses()
        for _ in range(50):
            res = vm_step_full(ens, em, 2e-3)
            ens, em = res.ensemble, res.em
        assert np.abs(ens.phase_masses() - masses0).max() < 1e-13

    def test_plasma_oscillation_period(self):
        # linearized electrostatic response: density mode oscillates at unit frequency
        K, a = 4, 1e-3
        ph = make_phase(1, K, 1.0, [([0], 1.0), ([1], a / 2)], [])
        ens = ensemble((ph,), 0.0)
        dt, T = 2 * np.pi / 2000, 2 * np.pi
        series = []
        cur = ens
        for _ in range(2000):
            cur = vp_step_full(cur, dt).ensemble
            series.append(cur.rho[0, 0, K + 1].real)
        series = np.array(series)
        ts = dt * np.arange(1, 2001)
        expect = (a / 2) * np.cos(ts)
        assert np.abs(series - expect).max() < 0.01 * (a / 2)

    def test_mean_current_drift_vp(self):
        ens = two_phase_2d(eps=0.0)
        j0 = moments(ens).j_mean
        assert np.abs(j0).max() < 1e-12  # normalized data
        cur = ens
        for _ in range(200):
            cur = vp_step_full(cur, 5e-3).ensemble  # T = 1
        j1 = moments(cur).j_mean
        assert np.abs(j1 - j0).max() < 1e-8

    def test_gate_abort_mid_run(self):
        ph = make_phase(2, 4, 1.0, [([0, 0], 1.0)], [(0, [0, 0], 2.0)])
        ens = ensemble((ph,), 0.5)
        em = well_prepared_em(ens)
        with pytest.raises(NumericalAbort):
            vm_step_full(ens, em, 1e-3)


class TestMoments:
    def test_static_uniform(self):
        m = moments(uniform_static())
        assert m.rho_grid.mean() == pytest.approx(1.0)
        assert np.abs(m.j_mean).max() < 1e-14
        assert m.m_alpha_sup == pytest.approx(0.0, abs=1e-14)

    def test_two_opposite_streams(self):
        c = 0.4
        p1 = make_phase(2, 4, 0.5, [([0, 0], 1.0)], [(0, [0, 0], c)])
        p2 = make_phase(2, 4, 0.5, [([0, 0], 1.0)], [(0, [0, 0], -c)])
        ens = ensemble((p1, p2), 0.0)
        m = moments(ens, alpha=1.0)
        assert np.abs(m.j_mean).max() < 1e-14
        assert m.m_alpha_sup == pytest.approx(c, rel=1e-12)

    def test_fourth_moment(self):
        c = 0.5
        p = make_phase(2, 4, 1.0, [([0, 0], 1.0)], [(0, [0, 0], c)])
        ens = ensemble((p,), 0.0)
        assert moments(ens).fourth_moment_l1 == pytest.approx(c ** 4, rel=1e-12)


class TestEnergy:
    def test_zero(self):
        assert total_energy(uniform_static()) == pytest.approx(0.0, abs=1e-15)

    def test_kinetic_nonrelativistic_limit(self):
        ens_small = two_phase_2d(eps=1e-4)
        ens_zero = two_phase_2d(eps=0.0)
        assert moments(ens_small).kinetic_energy == pytest.approx(moments(ens_zero).kinetic_energy, rel=1e-6)

    def test_vm_energy_drift_small(self):
        ens = two_phase_2d(eps=0.25)
        em = well_prepared_em(ens)
        e0 = total_energy(ens, em)
        for _ in range(100):
            res = vm_step_full(ens, em, 1e-3)
            ens, em = res.ensemble, res.em
        e1 = total_energy(ens, em)
        assert abs(e1 - e0) / abs(e0) < 1e-8


class TestCKIteration:
    def test_stationary_fixed_point(self):
        ens = uniform_static(dim=2, K=4, eps=0.2)
        em = well_prepared_em(ens)
        p = AnalyticNormParams(delta0=1.4, delta=1.15, eta=0.2)
        rep = ck_iterate(ens, em, p, n_max=4, n_time=32)
        assert max(rep.diffs_rho + rep.diffs_xi) == 0.0
        assert not rep.diverged

    def test_contraction_on_analytic_data(self):
        ens = two_phase_2d(K=6, eps=0.2, rho_amp=0.06, xi_mean=0.2, xi_amp=0.08)
        em = well_prepared_em(ens)
        p = AnalyticNormParams(delta0=1.4, delta=1.15, eta=0.2)
        rep = ck_iterate(ens, em, p, n_max=8, n_time=64)
        assert not rep.diverged
        assert ratios_below(rep, 0.75, start=3)
        assert rep.c1_declared == pytest.approx(4 * rep.c0_measured)
        assert rep.c2_declared == pytest.approx(32 * rep.c0_measured)

    def test_limit_matches_stepping(self):
        ens = two_phase_2d(K=6, eps=0.25, rho_amp=0.06, xi_mean=0.2, xi_amp=0.08)
        em = well_prepared_em(ens)
        p = AnalyticNormParams(delta0=1.4, delta=1.15, eta=0.2)
        rep = ck_iterate(ens, em, p, n_max=12, n_time=128)
        n_steps = 128
        dt = rep.horizon / n_steps
        cur, m = ens, em
        for _ in range(n_steps):
            res = vm_step_full(cur, m, dt)
            cur, m = res.ensemble, res.em
        for pidx in range(cur.mu.size):
            assert np.abs(rep.rho_traj[-1, pidx] - cur.rho[pidx]).max() < 1e-6
            assert np.abs(rep.xi_traj[-1, pidx] - cur.xi[pidx]).max() < 1e-6


def duhamel_closed_form(s_hat, a0, w0, times, eps, dim, cutoff):
    """The former _duhamel_series: the homogeneous part in closed form at each
    t_j plus a separate rotation recurrence for the Duhamel integrals."""
    from vmvp.fields import _filon_weights, _wave_knorm
    from vmvp.spectral import mode_norms

    kn0 = mode_norms(dim, cutoff)
    knm = _wave_knorm(dim, cutoff)
    dt = times[1] - times[0]
    theta = kn0 / eps * dt
    cth, sth = np.cos(theta), np.sin(theta)
    w_ss, w_se, w_cs, w_ce = _filon_weights(theta, dt)
    i_sin = np.zeros_like(s_hat[0])
    i_cos = np.zeros_like(s_hat[0])
    a_out = np.empty_like(s_hat)
    w_out = np.empty_like(s_hat)
    for j, t in enumerate(times):
        cph, sph = np.cos(kn0 / eps * t), np.sin(kn0 / eps * t)
        a_out[j] = cph * a0 + sph * w0 / knm + i_sin / knm
        w_out[j] = -kn0 * sph * a0 + cph * w0 + i_cos
        if j + 1 < len(times):
            loc_sin = w_ss * s_hat[j] + w_se * s_hat[j + 1]
            loc_cos = w_cs * s_hat[j] + w_ce * s_hat[j + 1]
            i_sin, i_cos = cth * i_sin + sth * i_cos + loc_sin, -sth * i_sin + cth * i_cos + loc_cos
    return a_out, w_out


class TestDuhamelSeries:
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    @pytest.mark.parametrize("K", [0, 1, 4])
    def test_matches_former_closed_form(self, eps, K):
        from vmvp.multifluid import _duhamel_series

        rng = np.random.default_rng(K)
        shape = (2,) + (2 * K + 1,) * 2
        times = np.linspace(0.0, 0.3, 65)
        s_hat = rng.standard_normal((times.size,) + shape) + 1j * rng.standard_normal((times.size,) + shape)
        a0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a0[:, K, K] = 0.0  # <A> is pinned to zero
        w0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a, w = _duhamel_series(s_hat, a0, w0, times, eps, 2, K)
        a_ref, w_ref = duhamel_closed_form(s_hat, a0, w0, times, eps, 2, K)
        assert np.abs(a - a_ref).max() <= 1e-13 * np.abs(a_ref).max()
        assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
        assert np.array_equal(a[:, :, K, K], np.zeros_like(a[:, :, K, K]))  # the pinned k = 0 mode
        # the rotation formed once per call, bit for bit the rotation formed at every step
        a_step, w_step = duhamel_series_stepwise(s_hat, a0, w0, times, eps, 2, K)
        assert np.array_equal(a, a_step)
        assert np.array_equal(w, w_step)

    @pytest.mark.parametrize("block", [1, 7, 32])
    def test_blocks_with_carried_state_match_one_call(self, block):
        # ck_iterate's windows: each block's samples plus the one before it,
        # from the state carried out of the previous window, on times[:m]
        from vmvp.multifluid import _duhamel_series

        K, eps = 3, 0.1
        rng = np.random.default_rng(block)
        shape = (2,) + (2 * K + 1,) * 2
        times = np.linspace(0.0, 0.0625, 65)
        s_hat = rng.standard_normal((times.size,) + shape) + 1j * rng.standard_normal((times.size,) + shape)
        a0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a_ref, w_ref = _duhamel_series(s_hat, a0, w0, times, eps, 2, K)
        a, w = np.empty_like(s_hat), np.empty_like(s_hat)
        a[0], w[0] = a0, w0
        calls = 0
        for lo in range(0, times.size, block):
            win = slice(max(lo - 1, 0), lo + block)
            m = len(s_hat[win])
            if m > 1:
                a[win], w[win] = _duhamel_series(s_hat[win], a[win.start], w[win.start], times[:m], eps, 2, K)
                calls += 1
        assert calls == -(-times.size // block) - (block == 1)  # one per block but a first block of one sample
        assert np.array_equal(a, a_ref)
        assert np.array_equal(w, w_ref)


class TestCumint:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 257])
    @pytest.mark.parametrize("kind", ["real", "complex", "slice", "one axis"])
    def test_bit_equal_to_scipy(self, n, kind):
        from vmvp.multifluid import _cumint

        rng = np.random.default_rng(n)
        y = rng.standard_normal((n, 3, 5)) + 1j * rng.standard_normal((n, 3, 5))
        if kind == "real":
            y = y.real.copy()
        elif kind == "slice":
            y = y[:, ::2, 1:4]
            assert not y.flags.c_contiguous
        elif kind == "one axis":
            y = y[:, 0, 0].copy()
        before = y.copy()
        got = _cumint(y, 0.0123)
        assert got.dtype == y.dtype and got.shape == y.shape
        assert np.array_equal(got, cumint_scipy(y, 0.0123))
        assert np.array_equal(y, before)

    def test_two_samples_take_the_trapezoid(self):
        from vmvp.multifluid import _cumint

        y = np.random.default_rng(2).standard_normal((2, 4))
        assert np.array_equal(_cumint(y, 0.3), np.stack([np.zeros(4), 0.3 * (y[1] + y[0]) / 2.0]))

    def test_single_sample_integrates_to_zero(self):
        from vmvp.multifluid import _cumint

        assert np.array_equal(_cumint(np.ones((1, 2), dtype=complex), 0.5), np.zeros((1, 2), dtype=complex))


class TestCkOracles:
    """ck_iterate against itself with the time integrals swapped for the test oracles."""

    @pytest.mark.parametrize("n_time", [1, 2, 20])
    def test_bit_equal_with_oracle_integrals(self, n_time, monkeypatch):
        # n_time = 1 leaves 2 time samples, so _cumint takes its trapezoid path
        from vmvp import multifluid

        ens = two_phase_2d(K=4, eps=0.25)
        em = well_prepared_em(ens)
        p = AnalyticNormParams(delta0=1.4, delta=1.15, eta=0.2)
        got = ck_iterate(ens, em, p, n_max=3, n_time=n_time)
        monkeypatch.setattr(multifluid, "_cumint", cumint_scipy)
        monkeypatch.setattr(multifluid, "_duhamel_series", duhamel_series_stepwise)
        ref = ck_iterate(ens, em, p, n_max=3, n_time=n_time)
        assert got.n_iters == ref.n_iters == 3
        assert np.array_equal(got.rho_traj, ref.rho_traj)
        assert np.array_equal(got.xi_traj, ref.xi_traj)
        assert got.diffs_rho == ref.diffs_rho and got.diffs_xi == ref.diffs_xi


# ck_iterate on bundled ck2d, recorded before the transforms became matrix DFTs
CK2D_DIFFS_RHO = [
    0.0013022507126305089, 0.00025075517473267453, 1.9754781365755363e-06, 1.0064210424982408e-07,
    4.991845573187314e-10, 1.6272345793123185e-11, 6.474723480217943e-14, 1.472795765926992e-15,
    2.520768207915629e-17, 4.304366078640608e-18,
]
CK2D_DIFFS_XI = [
    0.005770038245381955, 4.33860361110642e-05, 3.913129463164449e-06, 1.5988794024524164e-08,
    9.210626824139464e-10, 2.580505576979851e-12, 1.0461861566537019e-13, 2.27855598856126e-16,
    8.088627402232992e-18, 3.358408435277308e-20,
]


class TestCkRecorded:
    def test_bundled_ck2d_matches_recorded_differences(self):
        from vmvp.config import build_em_state, build_ensemble, load_config, resolve_config_path

        cfg = load_config(resolve_config_path("bundled/ck2d"))
        eps = cfg.eps_list[0]
        p = AnalyticNormParams(delta0=cfg.delta0, delta=cfg.delta1, eta=cfg.eta, beta=cfg.loss_beta)
        rep = ck_iterate(build_ensemble(cfg, eps), build_em_state(cfg, eps), p,
                         n_max=cfg.ck_n_iters, n_time=cfg.ck_n_time)
        tol = 1e-12 * rep.c0_measured
        assert np.abs(np.array(rep.diffs_rho) - CK2D_DIFFS_RHO).max() <= tol
        assert np.abs(np.array(rep.diffs_xi) - CK2D_DIFFS_XI).max() <= tol

    def test_slice_blocks_do_not_change_the_result(self, monkeypatch):
        from vmvp import multifluid

        ens = two_phase_2d(K=4, eps=0.25)
        em = well_prepared_em(ens)
        p = AnalyticNormParams(delta0=1.4, delta=1.15, eta=0.2)
        ref = ck_iterate(ens, em, p, n_max=3, n_time=20)
        monkeypatch.setattr(multifluid, "CK_SLICE_BLOCK", 7)
        blocked = ck_iterate(ens, em, p, n_max=3, n_time=20)
        assert np.array_equal(ref.rho_traj, blocked.rho_traj)
        assert np.array_equal(ref.xi_traj, blocked.xi_traj)
        assert ref.diffs_xi == blocked.diffs_xi

    @pytest.mark.parametrize("block", [1, 21])
    def test_single_slice_and_whole_grid_blocks_do_not_change_the_result(self, block, monkeypatch):
        # block 1: the first block holds t = 0 alone, with no Duhamel interval;
        # block 21: the 21 time samples of n_time = 20 in one block
        from vmvp import multifluid

        ens = two_phase_2d(K=4, eps=0.25)
        em = well_prepared_em(ens)
        p = AnalyticNormParams(delta0=1.4, delta=1.15, eta=0.2)
        ref = ck_iterate(ens, em, p, n_max=3, n_time=20)
        monkeypatch.setattr(multifluid, "CK_SLICE_BLOCK", block)
        blocked = ck_iterate(ens, em, p, n_max=3, n_time=20)
        assert np.array_equal(ref.rho_traj, blocked.rho_traj)
        assert np.array_equal(ref.xi_traj, blocked.xi_traj)
        assert ref.diffs_rho == blocked.diffs_rho and ref.diffs_xi == blocked.diffs_xi

    def test_bundled_ck2d_peak_memory_is_the_trajectories_plus_one_block(self):
        """Two iterations on bundled ck2d stay below 20 U + 24 G of traced memory.

        U = (n_time + 1) (2K + 1)^2 16 bytes is one complex field along the
        time grid (1.19 MB at n_time 256, K 8) and G = CK_SLICE_BLOCK M n^2 8
        bytes is one real grid field of one block of M phases on the padded
        n-point grid (0.30 MB at 16 slices, 2 phases, n 34).  Through the
        block loop an iteration holds 14 U of trajectories: rho and xi of the
        last iterate and their right-hand sides, 2 M (1 + d) = 12 U, and A,
        d = 2 U.  One block's kernel call adds its grids: the 1 + d + d^2 = 7
        synthesized fields per phase, the d velocity and 2d source fields,
        and the transforms' intermediates, under 24 G.  The time integration
        of dxi holds rho, xi, dxi, the new rho and xi, the integrator's
        half-length scratch and A: 20 U.  A Duhamel pass over the whole time
        grid at once would add its five d U arrays (11.9 MB) to the loop.
        """
        import tracemalloc

        from vmvp import multifluid
        from vmvp.config import build_em_state, build_ensemble, load_config, resolve_config_path
        from vmvp.spectral import padded_grid_size

        cfg = load_config(resolve_config_path("bundled/ck2d"))
        eps = cfg.eps_list[0]
        ens, em = build_ensemble(cfg, eps), build_em_state(cfg, eps)
        p = AnalyticNormParams(delta0=cfg.delta0, delta=cfg.delta1, eta=cfg.eta, beta=cfg.loss_beta)
        unit = (cfg.ck_n_time + 1) * (2 * ens.cutoff + 1) ** ens.dim * 16
        grid = multifluid.CK_SLICE_BLOCK * ens.mu.size * padded_grid_size(ens.cutoff) ** ens.dim * 8
        ck_iterate(ens, em, p, n_max=1, n_time=cfg.ck_n_time)  # the transform matrices are cached outside the trace
        tracemalloc.start()
        try:
            rep = ck_iterate(ens, em, p, n_max=2, n_time=cfg.ck_n_time)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_iters == 2
        assert peak < 20 * unit + 24 * grid


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ens = two_phase_2d()
        path = tmp_path / "e.ens"
        save_ensemble(ens, path)
        back = load_ensemble(path)
        assert back.eps == ens.eps
        assert np.array_equal(back.mu, ens.mu)
        assert np.array_equal(back.rho, ens.rho)
        assert np.array_equal(back.xi, ens.xi)

    def test_save_of_load_is_byte_for_byte(self, tmp_path):
        # the test pair and the bundled ck2d ensemble
        from vmvp.config import build_ensemble, load_config, resolve_config_path

        for ens in (two_phase_2d(), build_ensemble(load_config(resolve_config_path("bundled/ck2d")), 0.1)):
            save_ensemble(ens, tmp_path / "a.ens")
            save_ensemble(load_ensemble(tmp_path / "a.ens"), tmp_path / "b.ens")
            assert (tmp_path / "b.ens").read_bytes() == (tmp_path / "a.ens").read_bytes()

    def test_implied_byte_count_is_exact(self, tmp_path):
        # 16 bytes x 2 phases x 41 blocks x 3^40 modes, which wraps at int64
        path = tmp_path / "e.ens"
        header = {"format": "vmvp-ensemble-v1", "eps": 0.1, "dim": 40, "cutoff": 1, "phases": [{"mu": 0.5}, {"mu": 0.5}]}
        path.write_bytes((json.dumps(header) + "\n").encode() + bytes(64))
        with pytest.raises(ValidationError, match=str(16 * 2 * 41 * 3 ** 40)):
            load_ensemble(path)

    @pytest.mark.parametrize("cut", [1, 16])
    def test_truncated_or_padded_file_rejected(self, tmp_path, cut):
        path = tmp_path / "e.ens"
        save_ensemble(two_phase_2d(K=3), path)
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        with pytest.raises(ValidationError):
            load_ensemble(path)
        path.write_bytes(data + b"\0" * cut)
        with pytest.raises(ValidationError):
            load_ensemble(path)

    def test_bad_phase_table_rejected(self, tmp_path):
        path = tmp_path / "e.ens"
        path.write_bytes(b'{"format": "vmvp-ensemble-v1", "eps": 0.1, "dim": 2, "cutoff": 1, "phases": [{}]}\n')
        with pytest.raises(ValidationError):
            load_ensemble(path)
