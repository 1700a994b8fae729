from dataclasses import replace

import numpy as np
import pytest

from oracles import mode_oscillation_energy
from vmvp.errors import ValidationError
from vmvp.fields import (
    EMState,
    _duhamel_series,
    _rotate,
    assemble_b,
    electric_coeffs,
    field_energy,
    gauge_residuals,
    init_em_state,
    magnetic_coeffs,
    mean_momentum_ledger,
)
from vmvp.spectral import (
    SpectralField,
    curl,
    divergence,
    gradient,
    l2_norm,
    leray_project,
    mean,
    mode_norms,
    multiply,
    solve_poisson,
)


def _mode(dim, K, comp, kvec, amp):
    return SpectralField.from_modes(dim, K, dim, [(comp, kvec, amp)])


def well_prepared_state(dim=2, K=8, rho_amp=0.1):
    kvec = [1] + [0] * (dim - 1)
    rho = SpectralField.constant(dim, K, 1.0) + SpectralField.from_modes(dim, K, 1, [(0, kvec, rho_amp / 2)])
    phi = solve_poisson(rho)
    e0 = -1.0 * gradient(phi)
    b0 = SpectralField.zeros(dim, K, 3 if dim == 3 else 1)
    return rho, e0, b0, init_em_state(rho, np.zeros(dim), e0, b0)


class TestInit:
    def test_well_prepared_cancellation(self):
        _, _, _, st = well_prepared_state()
        assert np.abs(st.a.coeffs).max() == 0.0
        assert np.abs(st.eps_adot.coeffs).max() < 1e-14

    def test_uniform_with_constant_b(self):
        K = 4
        rho = SpectralField.constant(2, K, 1.0)
        e0 = SpectralField.zeros(2, K, 2)
        b0 = SpectralField.constant(2, K, 0.7)
        st = init_em_state(rho, np.zeros(2), e0, b0)
        assert np.abs(electric_coeffs(rho.coeffs, st.eps_adot.coeffs, 2)).max() == 0.0
        assert np.abs(st.a.coeffs).max() == 0.0
        assert st.mean_b0[0] == pytest.approx(0.7)

    def test_gauss_violation_named(self):
        K = 4
        rho = SpectralField.constant(2, K, 1.0)
        e0 = _mode(2, K, 0, [0, 1], 0.3)  # div-free but nonzero divergence mismatch? no: make it gradient-like
        e0 = _mode(2, K, 0, [1, 0], 0.3)  # d1 component with k=e1: divergence nonzero
        b0 = SpectralField.zeros(2, K, 1)
        with pytest.raises(ValidationError, match="Gauss"):
            init_em_state(rho, np.zeros(2), e0, b0)

    def test_e_round_trip(self):
        # E of init(...) must reproduce E0 exactly, including a transverse part
        K = 6
        rho = SpectralField.constant(2, K, 1.0) + SpectralField.from_modes(2, K, 1, [(0, [1, 0], 0.05)])
        phi = solve_poisson(rho)
        transverse = _mode(2, K, 1, [1, 0], 0.1) + _mode(2, K, 0, [0, 2], 0.05j)
        e0 = -1.0 * gradient(phi) + transverse
        b0 = SpectralField.zeros(2, K, 1)
        st = init_em_state(rho, np.zeros(2), e0, b0)
        assert np.abs(electric_coeffs(rho.coeffs, st.eps_adot.coeffs, 2) - e0.coeffs).max() < 1e-13
        # gauge state is automatically clean
        g = gauge_residuals(st)
        assert g["div_a"] < 1e-13 and g["mean_a"] < 1e-14
        assert np.abs(divergence(st.eps_adot).coeffs).max() < 1e-13

    def test_mean_current_violation(self):
        rho, e0, b0, _ = well_prepared_state()
        with pytest.raises(ValidationError, match="current"):
            init_em_state(rho, np.array([0.1, 0.0]), e0, b0)

    def test_solenoidal_b_checked_once(self):
        # d = 3: biot_savart's 1e-10 * max(|B0|, 1) bound is the one div B0 check
        rho, e0, _, _ = well_prepared_state(dim=3, K=2)
        for resid, refused in ((5e-11, False), (5e-10, True)):
            # a solenoidal mode plus a longitudinal one of div B0 = i resid at k = (1, 0, 0)
            b0 = SpectralField.from_modes(3, 2, 3, [(2, [1, 0, 0], 0.3), (0, [1, 0, 0], resid)])
            assert np.abs(divergence(b0).coeffs).max() == pytest.approx(resid)
            if refused:
                with pytest.raises(ValidationError, match="biot_savart requires div B = 0"):
                    init_em_state(rho, np.zeros(3), e0, b0)
            else:
                assert np.abs(init_em_state(rho, np.zeros(3), e0, b0).a.coeffs).max() > 0.0


def free_oscillation_state(K=8, kvec=(1, 0), a_amp=0.5):
    """Zero-source state with a single +-k pair in A (component 2)."""
    a = _mode(2, K, 1, list(kvec), a_amp / 2)
    return EMState(a, SpectralField.zeros(2, K, 2), np.zeros(1), np.zeros(2))


def wave_run(st: EMState, eps: float, dt: float, n: int, src: SpectralField | None = None) -> EMState:
    """st after n steps of dt of `_duhamel_series`, with the Leray-projected src (or none) at every sample."""
    s = np.zeros_like(st.a.coeffs) if src is None else leray_project(src).coeffs
    a, w = _duhamel_series(
        np.broadcast_to(s, (n + 1,) + s.shape), st.a.coeffs, st.eps_adot.coeffs, dt * np.arange(n + 1), eps, st.dim, st.cutoff
    )
    return replace(st, a=SpectralField(st.dim, st.cutoff, a[-1]), eps_adot=SpectralField(st.dim, st.cutoff, w[-1]))


class TestWaveSeries:
    """The Duhamel series that ck_iterate runs, on free and constant-source dynamics."""

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_zero_source_cosine(self, eps, dt):
        n = 100
        st = wave_run(free_oscillation_state(), eps, dt, n)
        idx = (1, 9, 8)  # component 2, k=(1,0)
        expect = 0.25 * np.cos(n * dt / eps)
        assert st.a.coeffs[idx].real == pytest.approx(expect, abs=1e-10)
        assert abs(st.a.coeffs[idx].imag) < 1e-12

    def test_zero_source_sine_pattern(self, K=8, eps=0.1):
        w = _mode(2, K, 0, [0, 2], 0.3)
        st = wave_run(EMState(SpectralField.zeros(2, K, 2), w, np.zeros(1), np.zeros(2)), eps, 1e-3, 250)
        knorm = 2.0
        idx = (0, K, K + 2)
        expect = np.sin(knorm * 0.25 / eps) / knorm * 0.3
        assert st.a.coeffs[idx].real == pytest.approx(expect, abs=1e-10)

    def test_constant_source_matches_duhamel_quadrature(self):
        K, eps = 4, 0.3
        st = EMState(SpectralField.zeros(2, K, 2), SpectralField.zeros(2, K, 2), np.zeros(1), np.zeros(2))
        src = _mode(2, K, 1, [1, 0], 0.4)  # transverse: P(src) = src
        T = 0.5
        for dt in (1e-2, 1e-3):
            cur = wave_run(st, eps, dt, int(round(T / dt)), src)
            # high-resolution quadrature of int_0^T sin(|k|(T-s)/eps) S ds / |k|
            s_grid = np.linspace(0, T, 20001)
            w = np.sin(1.0 * (T - s_grid) / eps)
            integral = np.trapezoid(w, s_grid) * 0.4  # S_hat(k) = 0.4 at each of +-(1,0)
            got = cur.a.coeffs[1, K + 1, K].real
            assert got == pytest.approx(integral, abs=5e-9)

    def test_zero_source_mode_energy_invariant(self):
        st = free_oscillation_state()
        e0 = mode_oscillation_energy(st)
        st = wave_run(st, 0.07, 2e-3, 200)
        assert np.abs(mode_oscillation_energy(st) - e0).max() < 1e-12

    def test_gauge_preserved(self):
        src = _mode(2, 8, 1, [2, 0], 0.3)  # Leray-projected by wave_run
        st = wave_run(free_oscillation_state(), 0.2, 1e-2, 50, src)
        g = gauge_residuals(st)
        assert g["div_a"] < 1e-12
        assert g["mean_a"] < 1e-14


class TestRotate:
    """The one exact propagator of the free wave modes."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_group_law_and_inverse(self, dim, eps):
        K = 4
        rng = np.random.default_rng(dim)
        shape = (dim,) + (2 * K + 1,) * dim
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t1, t2 = 0.013, 0.021
        once = _rotate(a, w, t1 + t2, eps, dim, K)
        twice = _rotate(*_rotate(a, w, t1, eps, dim, K), t2, eps, dim, K)
        back = _rotate(*_rotate(a, w, t1, eps, dim, K), -t1, eps, dim, K)
        scale = max(np.abs(a).max(), np.abs(w).max())
        for x, y in ((once, twice), (back, (a, w))):
            assert np.abs(x[0] - y[0]).max() <= 1e-14 * scale
            assert np.abs(x[1] - y[1]).max() <= 1e-14 * scale
        k0 = (slice(None),) + (K,) * dim  # no restoring force: k = 0 is left as it is
        assert np.array_equal(once[0][k0], a[k0]) and np.array_equal(once[1][k0], w[k0])


class TestAssembleAndLedger:
    def test_electric_field_parts(self):
        rho, e0, b0, st = well_prepared_state()
        e = electric_coeffs(rho.coeffs, st.eps_adot.coeffs, 2)
        assert np.abs(e - e0.coeffs).max() < 1e-13

    def test_assemble_b_constant_mean(self):
        _, _, _, st = well_prepared_state()
        b = assemble_b(st)
        assert np.abs(b.coeffs).max() < 1e-14  # zero curl and zero mean_b0

    def test_gauss_law_identity(self):
        # div E = rho - 1 whenever phi is solved against the current rho
        rho, _, _, st = well_prepared_state(rho_amp=0.2)
        dive = divergence(SpectralField(2, 8, electric_coeffs(rho.coeffs, st.eps_adot.coeffs, 2)))
        target = rho - SpectralField.constant(2, 8, 1.0)
        assert np.abs(dive.coeffs - target.coeffs).max() < 1e-13

    def test_ledger_constant_current(self):
        _, _, _, st = well_prepared_state()
        cmean = np.array([0.3, -0.1])
        src = SpectralField.constant(2, 8, cmean)
        t = 0.2
        st = wave_run(st, 0.2, 1e-3, 200, src)
        # the k=0 integration is exact for a constant source
        assert np.abs(st.mean_eps_adot - cmean * t).max() < 1e-13
        assert mean_momentum_ledger(st, cmean * t) < 1e-13

    def test_ledger_zero_case(self):
        _, _, _, st = well_prepared_state()
        assert mean_momentum_ledger(st, np.zeros(2)) == 0.0

    def test_field_energy_parseval(self):
        K = 6
        e_only = EMState(
            a=SpectralField.zeros(2, K, 2),
            eps_adot=_mode(2, K, 1, [1, 0], -0.5),  # E = -eps_adot = cos(x1) e2
            mean_b0=np.zeros(1),
            mean_eps_adot0=np.zeros(2),
        )
        assert field_energy(SpectralField.constant(2, K, 1.0), e_only) == pytest.approx(0.25, rel=1e-12)

    def test_energy_nonnegative_zero(self):
        rho, _, _, st = well_prepared_state(rho_amp=0.0)
        assert field_energy(rho, st) == pytest.approx(0.0, abs=1e-28)

    def test_electrostatic_energy_has_no_magnetic_term(self):
        # no EM state: (1/2)||grad phi||^2 alone, bit for bit the E half of the full formula
        rho, e0, _, st = well_prepared_state(rho_amp=0.2)
        e_half = 0.5 * l2_norm(SpectralField(2, 8, electric_coeffs(rho.coeffs, None, 2))) ** 2
        assert field_energy(rho) == e_half > 0.0
        assert field_energy(rho) == pytest.approx(0.5 * l2_norm(e0) ** 2, rel=1e-12)
        assert field_energy(rho, st) == pytest.approx(field_energy(rho), rel=1e-12)


class TestFieldFormulas:
    """electric_coeffs and magnetic_coeffs, the one place each of E and B is formed."""

    @staticmethod
    def _batch(rng, dim, K, comps):
        # (time, phase)-batched smooth coefficients of real fields
        n = 2 * (2 * K + 1)
        grids = rng.standard_normal((3 * 2 * comps,) + (n,) * dim)
        c = SpectralField.from_grid(grids, K).coeffs * np.exp(-0.5 * mode_norms(dim, K))
        return c.reshape((3, 2, comps) + c.shape[1:])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_equals_per_slice(self, dim):
        K = 3
        rng = np.random.default_rng(dim)
        rho = self._batch(rng, dim, K, 1)
        rho[(..., 0) + (K,) * dim] = 1.0  # neutral densities
        w = self._batch(rng, dim, K, dim)
        a = self._batch(rng, dim, K, dim)
        a_before = a.copy()
        mean_b0 = np.array([0.3]) if dim == 2 else np.array([0.3, -0.2, 0.1])
        e, e_static, b = electric_coeffs(rho, w, dim), electric_coeffs(rho, None, dim), magnetic_coeffs(a, mean_b0, dim)
        assert np.array_equal(a, a_before)
        assert b.shape == (3, 2, 1 if dim == 2 else 3) + (2 * K + 1,) * dim
        for t in range(3):
            for p in range(2):
                assert np.array_equal(e[t, p], electric_coeffs(rho[t, p], w[t, p], dim))
                assert np.array_equal(e_static[t, p], electric_coeffs(rho[t, p], None, dim))
                assert np.array_equal(b[t, p], magnetic_coeffs(a[t, p], mean_b0, dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_against_the_operators(self, dim):
        K = 3
        rng = np.random.default_rng(10 + dim)
        rho = SpectralField(dim, K, self._batch(rng, dim, K, 1)[0, 0]) + SpectralField.constant(dim, K, 1.0)
        rho = rho - SpectralField.constant(dim, K, mean(rho) - 1.0)
        w = SpectralField(dim, K, self._batch(rng, dim, K, dim)[0, 0])
        a = SpectralField(dim, K, self._batch(rng, dim, K, dim)[0, 0])
        mean_b0 = np.array([0.3]) if dim == 2 else np.array([0.3, -0.2, 0.1])
        e = electric_coeffs(rho.coeffs, w.coeffs, dim)
        assert np.abs(e - (-1.0 * gradient(solve_poisson(rho)) - w).coeffs).max() <= 1e-15
        b = magnetic_coeffs(a.coeffs, mean_b0, dim)
        assert np.abs(b - (curl(a) + SpectralField.constant(dim, K, mean_b0)).coeffs).max() <= 1e-15

    def test_no_magnetic_field_in_one_dimension(self):
        with pytest.raises(ValidationError):
            magnetic_coeffs(np.zeros((1, 5), dtype=complex), np.zeros(1), 1)
