import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import evaluate_at_naive, gradient_stack
from vmvp.errors import ValidationError
from vmvp import spectral as sp
from vmvp.spectral import (
    AnalyticNormParams,
    SpectralField,
    analytic_norm,
    biot_savart,
    curl,
    derivative,
    divergence,
    gradient,
    helmholtz_decompose,
    l2_norm,
    leray_project,
    mean,
    multiply,
    reality_residual,
    shrinking_norm,
    solve_poisson,
)


def random_field(dim, cutoff, components=1, seed=0, decay=0.0):
    rng = np.random.default_rng(seed)
    n = sp.padded_grid_size(cutoff)
    grid = rng.standard_normal((components,) + (n,) * dim)
    f = SpectralField.from_grid(grid, cutoff)
    if decay:
        damp = np.exp(-decay * sp.mode_norms(dim, cutoff))
        f = SpectralField(dim, cutoff, f.coeffs * damp)
    return f


def cos_axis(dim, cutoff, axis=1, wavenumber=1, amplitude=1.0, component=0, components=1):
    k = [0] * dim
    k[axis - 1] = wavenumber
    return SpectralField.from_modes(dim, cutoff, components, [(component, k, amplitude / 2.0)])


class TestEvaluate:
    def test_cos_at_zero(self):
        f = cos_axis(1, 4)
        assert f.evaluate_at(np.array([[0.0]]))[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_constant_field(self):
        f = SpectralField.constant(2, 3, 0.7)
        pts = np.array([[0.1, 5.0], [3.0, 2.0]])
        assert np.allclose(f.evaluate_at(pts), 0.7, atol=1e-14)

    def test_matches_grid_transform(self):
        f = random_field(2, 4, seed=1)
        n = sp.padded_grid_size(4)
        xs = np.linspace(0, 2 * np.pi, n, endpoint=False)
        pts = np.array([(x, y) for x in xs[:5] for y in xs[:5]])
        grid = f.to_grid(n)
        direct = f.evaluate_at(pts).reshape(5, 5)
        assert np.abs(direct - grid[0, :5, :5]).max() < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tensorized_matches_naive(self, dim):
        f = random_field(dim, 3, components=dim, seed=dim)
        pts = np.random.default_rng(7).uniform(0, 2 * np.pi, (40, dim))
        a = f.evaluate_at(pts)
        b = evaluate_at_naive(f, pts)
        assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [0, 1, 5, 16])
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_half_box_matches_naive(self, dim, cutoff, vector, hermitian):
        # the folded half-box sum keeps Re(full sum) for any coefficient array
        components = dim if vector else 1
        seed = 100 * dim + cutoff
        if hermitian:
            f = random_field(dim, cutoff, components=components, seed=seed)
            assert reality_residual(f) < 1e-13
        else:
            rng = np.random.default_rng(seed)
            shape = (components,) + (2 * cutoff + 1,) * dim
            f = SpectralField(dim, cutoff, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        pts = np.random.default_rng(seed + 1).uniform(-2.0, 9.0, (23, dim))
        a = f.evaluate_at(pts)
        b = evaluate_at_naive(f, pts)
        assert a.shape == b.shape == (23, components)
        assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("support", ["full", "sub-box"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_points(self, dim, support):
        if support == "full":
            f = random_field(dim, 2, components=dim)
        else:
            f = axis_decaying_field(dim, 8, (9.0,) * dim, components=dim)
            assert max(sp._support_radii(f.coeffs)) < 8
        assert f.evaluate_at(np.empty((0, dim))).shape == (0, dim)



def axis_decaying_field(dim, cutoff, rates, components=1, seed=0):
    """A random real field damped by exp(-sum_a rate_a |k_a|): a different support on every axis."""
    k = np.abs(sp.mode_vectors(dim, cutoff))
    damp = np.exp(-np.tensordot(np.asarray(rates, dtype=float), k, axes=1))
    return SpectralField(dim, cutoff, random_field(dim, cutoff, components, seed).coeffs * damp)


def outside_box(f, radii):
    """Mask of the modes outside |k_a| <= radii[a]."""
    k = np.abs(sp.mode_vectors(f.dim, f.cutoff))
    return np.any(k > np.reshape(radii, (-1,) + (1,) * f.dim), axis=0)


def dropped_mass(f, radii):
    """l1 mass (all components) of the modes outside |k_a| <= radii[a]."""
    return np.abs(f.coeffs)[:, outside_box(f, radii)].sum()


# (dim, cutoff, per-axis decay rates): every radius below K on some axes, K on others
DECAYING = [(1, 16, (4.0,)), (2, 16, (4.0, 2.5)), (2, 16, (1.5, 5.0)), (3, 8, (7.0, 1.0, 5.0))]


class TestSupportRule:
    """evaluate_at sums the box whose outside carries at most u sum |c|."""

    @pytest.mark.parametrize("dim, cutoff, rates", DECAYING)
    @pytest.mark.parametrize("vector", [False, True])
    def test_dropped_mass_within_budget_and_radii_minimal(self, dim, cutoff, rates, vector):
        f = axis_decaying_field(dim, cutoff, rates, components=dim if vector else 1, seed=dim)
        radii = sp._support_radii(f.coeffs)
        total = np.abs(f.coeffs).sum()
        assert min(radii) < cutoff
        assert dropped_mass(f, radii) <= sp.UNIT_ROUNDOFF * total
        for a, r in enumerate(radii):
            if r:  # one ring less on axis a alone drops more than its share u/d of the mass
                shrunk = [cutoff] * dim
                shrunk[a] = r - 1
                assert dropped_mass(f, shrunk) > sp.UNIT_ROUNDOFF / dim * total

    @pytest.mark.parametrize("dim, cutoff, rates", DECAYING)
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_naive_within_the_bound(self, dim, cutoff, rates, hermitian):
        f = axis_decaying_field(dim, cutoff, rates, components=dim, seed=dim + 1)
        if not hermitian:
            f = SpectralField(dim, cutoff, f.coeffs * (1.0 + 0.5j))
        pts = np.random.default_rng(dim).uniform(-2.0, 9.0, (300, dim))
        got, want = f.evaluate_at(pts), evaluate_at_naive(f, pts)
        bound = sp.UNIT_ROUNDOFF * np.abs(f.coeffs).sum()
        assert np.abs(got - want).max() <= bound + 1e-13 * max(1.0, np.abs(want).max())
        # on the chosen sub-box it is the naive sum to round-off
        kept = SpectralField(dim, cutoff, np.where(outside_box(f, sp._support_radii(f.coeffs)), 0, f.coeffs))
        assert np.abs(got - evaluate_at_naive(kept, pts)).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_non_finite_outer_ring_propagates(self, dim, bad):
        # dropped by the support rule, the outermost ring would hide it
        cutoff = 4
        c = axis_decaying_field(dim, cutoff, (8.0,) * dim, components=2, seed=dim).coeffs.copy()
        c[(1, 0) + (cutoff,) * (dim - 1)] = bad                   # k = (-K, 0, ..., 0)
        f = SpectralField(dim, cutoff, c)
        assert sp._support_radii(f.coeffs) == (cutoff,) * dim
        pts = np.random.default_rng(dim).uniform(0.0, 2 * np.pi, (9, dim))
        with np.errstate(invalid="ignore"):
            vals = f.evaluate_at(pts)
        assert np.isfinite(vals[:, 0]).all()
        assert not np.isfinite(vals[:, 1]).any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_field(self, dim):
        zero = SpectralField.zeros(dim, 5, components=3)
        assert sp._support_radii(zero.coeffs) == (0,) * dim
        pts = np.random.default_rng(dim).uniform(0.0, 2 * np.pi, (7, dim))
        assert np.array_equal(zero.evaluate_at(pts), np.zeros((7, 3)))

    def test_tiny_b_keeps_the_radii_of_the_stack(self):
        # the push evaluates stack([E, B]); B alone has mass in every ring,
        # so a per-component rule would keep the full box
        e = axis_decaying_field(2, 16, (4.0, 3.0), components=2, seed=3)
        b = SpectralField(2, 16, 1e-30 * random_field(2, 16, seed=4).coeffs)
        both = sp.stack([e, b])
        assert sp._support_radii(b.coeffs) == (16, 16)
        assert sp._support_radii(both.coeffs) == sp._support_radii(e.coeffs)
        assert max(sp._support_radii(both.coeffs)) < 16
        pts = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (50, 2))
        want = evaluate_at_naive(both, pts)
        bound = sp.UNIT_ROUNDOFF * np.abs(both.coeffs).sum()
        assert np.abs(both.evaluate_at(pts) - want).max() <= bound + 1e-13 * max(1.0, np.abs(want).max())

def fft_from_grid(grid, cutoff):
    """The former FFT analysis: fftn over the box axes, shifted and cropped."""
    dim = grid.ndim - 1
    axes = tuple(range(1, dim + 1))
    chat = np.fft.fftshift(np.fft.fftn(grid, axes=axes) / np.prod(grid.shape[1:]), axes=axes)
    crop = (slice(None),) + tuple(slice(n // 2 - cutoff, n // 2 + cutoff + 1) for n in grid.shape[1:])
    return chat[crop]


def fft_to_grid(coeffs, dim, n):
    """The former FFT synthesis: zero-padded, unshifted inverse fftn, real part."""
    cutoff = (coeffs.shape[-1] - 1) // 2
    axes = tuple(range(1, dim + 1))
    padded = np.zeros((coeffs.shape[0],) + (n,) * dim, dtype=np.complex128)
    padded[(slice(None),) + (slice(n // 2 - cutoff, n // 2 + cutoff + 1),) * dim] = coeffs
    return (np.fft.ifftn(np.fft.ifftshift(padded, axes=axes), axes=axes) * n ** dim).real


def _close_to(a, ref):
    return np.abs(a - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


class TestTransforms:
    """The pruned matrix-DFT transforms against the FFT they replaced."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("cutoff", [0, 1, 5, 16])
    @pytest.mark.parametrize("size", ["tight", "padded", "odd"])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_fft(self, dim, cutoff, size, hermitian):
        n = {"tight": 2 * cutoff + 1, "padded": sp.padded_grid_size(cutoff), "odd": 2 * cutoff + 4}[size]
        n += (n + 1) % 2 if size == "odd" else 0
        rng = np.random.default_rng(1000 * dim + 10 * cutoff + n)
        grid = rng.standard_normal((2,) + (n,) * dim)
        c = sp.from_grid(grid, dim, cutoff)
        assert _close_to(c, fft_from_grid(grid, cutoff))
        assert reality_residual(SpectralField(dim, cutoff, c)) == 0.0
        if not hermitian:
            c = c + 1j * rng.standard_normal(c.shape) + rng.standard_normal(c.shape)
        assert _close_to(sp.to_grid(c, dim, n), fft_to_grid(c, dim, n))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_batched_equals_looped(self, dim):
        cutoff, n = 3, 10
        rng = np.random.default_rng(dim)
        c = rng.standard_normal((3, 2, 2) + (2 * cutoff + 1,) * dim) * (1 + 1j)
        grid = rng.standard_normal((3, 2, 2) + (n,) * dim)
        vals = sp.to_grid(c, dim, n)
        coeffs = sp.from_grid(grid, dim, cutoff)
        assert vals.shape == (3, 2, 2) + (n,) * dim
        assert coeffs.shape == c.shape
        for i in range(3):
            for j in range(2):
                assert np.array_equal(vals[i, j], sp.to_grid(c[i, j], dim, n))
                assert np.array_equal(coeffs[i, j], sp.from_grid(grid[i, j], dim, cutoff))

    def test_methods_use_the_transforms(self):
        f = random_field(2, 4, components=2, seed=5)
        assert np.array_equal(f.to_grid(12), sp.to_grid(f.coeffs, 2, 12))
        grid = f.to_grid()
        assert np.array_equal(SpectralField.from_grid(grid, 4).coeffs, sp.from_grid(grid, 2, 4))

    def test_batched_transforms_call_the_kernels_once(self, monkeypatch):
        calls = []
        synthesis, analysis = sp._synthesis, sp._analysis
        monkeypatch.setattr(sp, "_synthesis", lambda c, *a: calls.append(("to", c.shape)) or synthesis(c, *a))
        monkeypatch.setattr(sp, "_analysis", lambda g, *a: calls.append(("from", g.shape)) or analysis(g, *a))
        monkeypatch.setattr(SpectralField, "__post_init__", lambda f: pytest.fail("a field was built"))
        grid = sp.to_grid(np.zeros((4, 3, 2, 5, 5), dtype=complex), 2, 8)
        sp.from_grid(grid, 2, 2)
        assert calls == [("to", (4, 3, 2, 5, 5)), ("from", (4, 3, 2, 8, 8))]

    def test_round_trip(self):
        f = random_field(3, 4, components=3, seed=9)
        back = SpectralField.from_grid(f.to_grid(), 4)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-15

    def test_from_grid_rejects_complex(self):
        with pytest.raises(ValidationError):
            sp.from_grid(np.ones((1, 8, 8), dtype=complex), 2, 3)
        with pytest.raises(ValidationError):
            SpectralField.from_grid(np.ones((1, 8, 8), dtype=complex), 3)

    def test_from_grid_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            sp.from_grid(np.ones((1, 6, 6)), 2, 3)
        with pytest.raises(ValidationError):
            sp.from_grid(np.ones((1, 7, 6)), 2, 3)

    def test_to_grid_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            sp.to_grid(np.ones((1, 7, 7), dtype=complex), 2, 6)

    @pytest.mark.parametrize("shape", [(5,), (1, 5, 7), (1, 7, 5), (1, 6, 6)])
    def test_to_grid_rejects_a_malformed_mode_box(self, shape):
        with pytest.raises(ValidationError):
            sp.to_grid(np.ones(shape, dtype=complex), 2)


class TestTransformBatchInvariance:
    """A field transforms to the same floats wherever it sits in a batch.

    Each field goes through matrix products of its own.  One product over a
    whole batch would round a field by its place in that product, and the
    batched fluid kernel, which equals per-phase calls bit for bit, would not.
    """

    @pytest.mark.parametrize("dim, cutoff", [(2, 8), (3, 3)])
    @pytest.mark.parametrize("batch", [1, 7, 42, 224])
    def test_every_slot_equals_its_own_call(self, dim, cutoff, batch):
        rng = np.random.default_rng(10 * batch + dim)
        shape = (batch,) + (2 * cutoff + 1,) * dim
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid = rng.standard_normal((batch,) + (sp.padded_grid_size(cutoff),) * dim)
        vals, grads = sp.to_grid(c, dim), sp.to_grid(c, dim, gradient=True)
        coeffs = sp.from_grid(grid, dim, cutoff)
        assert grads.shape == (1 + dim,) + vals.shape
        for i in range(batch):
            assert np.array_equal(vals[i], sp.to_grid(c[i], dim))
            assert np.array_equal(grads[:, i], sp.to_grid(c[i], dim, gradient=True))
            assert np.array_equal(coeffs[i], sp.from_grid(grid[i], dim, cutoff))

    @pytest.mark.parametrize("dim, cutoff", [(1, 8), (2, 8), (2, 0), (3, 3)])
    @pytest.mark.parametrize("size", ["padded", "odd"])
    def test_gradient_is_the_synthesis_of_ik_coeffs(self, dim, cutoff, size):
        n = sp.padded_grid_size(cutoff) if size == "padded" else 2 * cutoff + 3
        rng = np.random.default_rng(dim + cutoff)
        shape = (2, 3) + (2 * cutoff + 1,) * dim
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # not Hermitian
        g = sp.to_grid(c, dim, n, gradient=True)
        assert _close_to(g[0], sp.to_grid(c, dim, n))
        ik = sp.ik_vectors(dim, cutoff)
        for a in range(dim):
            assert _close_to(g[1 + a], sp.to_grid(ik[a] * c, dim, n))


class TestAnalyticNorm:
    def test_cosine(self):
        assert analytic_norm(cos_axis(1, 4), 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_constant(self):
        assert analytic_norm(SpectralField.constant(2, 2, -3.5), 1.7) == pytest.approx(3.5)

    def test_two_mode_sum(self):
        f = cos_axis(1, 4, wavenumber=1) + cos_axis(1, 4, wavenumber=2)
        assert analytic_norm(f, 1.5) == pytest.approx(1.5 + 1.5 ** 2, rel=1e-14)

    def test_rejects_delta_leq_one(self):
        with pytest.raises(ValidationError):
            analytic_norm(cos_axis(1, 4), 1.0)


class TestShrinkingNorm:
    def test_constant_in_time(self):
        p = AnalyticNormParams(delta0=2.0, eta=1.0, beta=0.5)
        f = SpectralField.constant(2, 4, 1.0)
        assert shrinking_norm([0.0, 0.2, 0.4], [f, f, f], p) == pytest.approx(1.0)

    def test_single_snapshot_custom_grid(self):
        p = AnalyticNormParams(delta0=2.0, eta=1.0, beta=0.5)
        f = cos_axis(1, 4)
        eps = 0.25
        val = shrinking_norm([0.0], [f], p, delta_grid=[2.0 - eps])
        expect = analytic_norm(f, 2.0 - eps) + eps ** 0.5 * analytic_norm(derivative(f, 1), 2.0 - eps)
        assert val == pytest.approx(expect, rel=1e-13)

    def test_frozen_cosine_hand_value(self):
        p = AnalyticNormParams(delta0=2.0, eta=1.0, beta=0.5)
        f = cos_axis(1, 4)
        val = shrinking_norm([0.0], [f], p, delta_grid=[1.5])
        assert val == pytest.approx(1.5 + (0.5 ** 0.5) * 1.5, rel=1e-13)

    def test_empty_trajectory_rejected(self):
        p = AnalyticNormParams(delta0=2.0)
        with pytest.raises(ValidationError):
            shrinking_norm([], [], p)


def looped_shrinking_norm(times, fields, p, grid):
    """The former double loop over sampled times and delta values."""
    knorm = sp.mode_norms(fields[0].dim, fields[0].cutoff)
    axes = tuple(range(1, fields[0].dim + 1))
    sup = 0.0
    for t, u in zip(times, fields):
        au = np.abs(u.coeffs)
        ag = np.abs(gradient_stack(u).coeffs)
        for delta in grid:
            margin = p.delta0 - delta - t / p.eta
            if margin < 0 or delta <= 1.0:
                continue
            w = delta ** knorm
            val = float((au * w).sum(axis=axes).max()) + margin ** p.beta * float((ag * w).sum(axis=axes).max())
            sup = max(sup, val)
    return sup


class TestShrinkingNormVectorised:
    @pytest.mark.parametrize("dim,components", [(1, 1), (2, 1), (2, 2), (3, 3)])
    def test_matches_loop(self, dim, components):
        p = AnalyticNormParams(delta0=1.6, delta=1.1, eta=0.5, beta=0.4)
        # the last times lie outside the wedge t <= eta (delta0 - delta) for most deltas
        times = np.linspace(0.0, 0.45, 7)
        fields = [random_field(dim, 4, components=components, seed=10 * dim + j, decay=0.3) for j in range(7)]
        grid = np.concatenate([p.delta_grid(), [0.9, 1.0, 1.05]])    # delta <= 1 is skipped
        want = looped_shrinking_norm(times, fields, p, grid)
        got = shrinking_norm(times, fields, p, delta_grid=grid)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-14)
        assert shrinking_norm(times, fields, p) == pytest.approx(
            looped_shrinking_norm(times, fields, p, p.delta_grid()), rel=1e-14
        )

    @pytest.mark.parametrize("dim,components", [(1, 1), (2, 2), (3, 3)])
    def test_stacked_coefficients_match_fields(self, dim, components):
        p = AnalyticNormParams(delta0=1.6, delta=1.1, eta=0.5, beta=0.4)
        times = np.linspace(0.0, 0.45, 7)
        fields = [random_field(dim, 4, components=components, seed=20 * dim + j, decay=0.3) for j in range(7)]
        stacked = np.stack([f.coeffs for f in fields])
        assert shrinking_norm(times, stacked, p) == shrinking_norm(times, fields, p)
        # a strided view, as ck_iterate passes one phase of its trajectory
        wide = np.stack([stacked, 2 * stacked], axis=1)
        assert shrinking_norm(times, wide[:, 0], p) == shrinking_norm(times, fields, p)
        with pytest.raises(ValidationError):
            shrinking_norm(times[:-1], stacked, p)

    def test_nothing_admissible_gives_zero(self):
        p = AnalyticNormParams(delta0=1.6, eta=0.5)
        f = random_field(2, 3, seed=4)
        assert shrinking_norm([5.0], [f], p, delta_grid=[0.8, 1.0, 1.5]) == 0.0
        assert looped_shrinking_norm([5.0], [f], p, [0.8, 1.0, 1.5]) == 0.0


class TestDerivative:
    def test_cosine(self):
        df = derivative(cos_axis(1, 4), 1)
        minus_sin = SpectralField.from_modes(1, 4, 1, [(0, [1], -0.5 / 1j)])
        assert np.abs(df.coeffs - minus_sin.coeffs).max() < 1e-15

    def test_constant(self):
        df = derivative(SpectralField.constant(3, 2, 4.2), 2)
        assert np.abs(df.coeffs).max() == 0.0

    def test_loss_inequality_random(self):
        # |d_i f|_{delta'} <= delta/(delta-delta') |f|_delta
        delta, dprime = 2.0, 1.5
        for seed in range(100):
            f = random_field(2, 8, seed=seed, decay=0.8)
            lhs = analytic_norm(derivative(f, 1), dprime)
            rhs = delta / (delta - dprime) * analytic_norm(f, delta)
            assert lhs <= rhs * (1 + 1e-10) + 1e-10


class TestMultiply:
    def test_identity(self):
        g = random_field(2, 5, seed=3)
        one = SpectralField.constant(2, 5, 1.0)
        assert np.abs(multiply(one, g).coeffs - g.coeffs).max() < 1e-13

    def test_cos_squared(self):
        f = cos_axis(1, 4)
        prod = multiply(f, f)
        expect = SpectralField.from_modes(1, 4, 1, [(0, [0], 0.5), (0, [2], 0.25)])
        assert np.abs(prod.coeffs - expect.coeffs).max() < 1e-14

    def test_exact_convolution_small(self):
        K = 3
        f = random_field(1, K, seed=10)
        g = random_field(1, K, seed=11)
        prod = multiply(f, g)
        conv = np.zeros(2 * K + 1, dtype=complex)
        for k in range(-K, K + 1):
            for p in range(-K, K + 1):
                q = k - p
                if -K <= q <= K:
                    conv[k + K] += f.coeffs[0, p + K] * g.coeffs[0, q + K]
        assert np.abs(prod.coeffs[0] - conv).max() < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.2, 1.5, 2.0]))
    def test_algebra_property(self, seed, delta):
        f = random_field(2, 6, seed=seed, decay=0.7)
        g = random_field(2, 6, seed=seed + 1, decay=0.7)
        lhs = analytic_norm(multiply(f, g), delta)
        rhs = analytic_norm(f, delta) * analytic_norm(g, delta)
        assert lhs <= rhs * (1 + 1e-10) + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            multiply(random_field(1, 4), random_field(2, 4))


class TestPoisson:
    def test_single_mode(self):
        rho = SpectralField.constant(1, 4, 1.0) + cos_axis(1, 4)
        phi = solve_poisson(rho)
        assert np.abs(phi.coeffs - cos_axis(1, 4).coeffs).max() < 1e-14

    def test_uniform(self):
        phi = solve_poisson(SpectralField.constant(2, 4, 1.0))
        assert np.abs(phi.coeffs).max() == 0.0

    def test_mode_two(self):
        rho = SpectralField.constant(1, 4, 1.0) + cos_axis(1, 4, wavenumber=2)
        phi = solve_poisson(rho)
        expect = cos_axis(1, 4, wavenumber=2, amplitude=0.25)
        assert np.abs(phi.coeffs - expect.coeffs).max() < 1e-14

    def test_neutrality_enforced(self):
        rho = SpectralField.constant(2, 4, 1.01)
        with pytest.raises(ValidationError, match="neutrality"):
            solve_poisson(rho)

    def test_round_trip(self):
        f = random_field(2, 6, seed=8)
        rho = SpectralField.constant(2, 6, 1.0) + (f - SpectralField.constant(2, 6, mean(f)[0]))
        phi = solve_poisson(rho)
        lap = derivative(derivative(phi, 1), 1) + derivative(derivative(phi, 2), 2)
        resid = (-1.0) * lap - (rho - SpectralField.constant(2, 6, 1.0))
        assert np.abs(resid.coeffs).max() < 1e-12 * max(1, np.abs(rho.coeffs).max())


class TestLerayHelmholtz:
    def test_pure_gradient_mode_killed(self):
        # F(k=e1) = e1: parallel to k, projected to zero at that mode
        f = SpectralField.from_modes(2, 4, 2, [(0, [1, 0], 1.0)])
        p = leray_project(f)
        assert np.abs(p.coeffs[:, 5, 4]).max() < 1e-15

    def test_transverse_mode_unchanged(self):
        f = SpectralField.from_modes(2, 4, 2, [(1, [1, 0], 1.0)])
        p = leray_project(f)
        assert np.abs(p.coeffs - f.coeffs).max() < 1e-15

    def test_idempotent_divfree_and_kills_gradients(self):
        for seed in range(20):
            f = random_field(3, 3, components=3, seed=seed)
            p = leray_project(f)
            assert np.abs(leray_project(p).coeffs - p.coeffs).max() < 1e-12
            dp = divergence(p)
            assert np.abs(dp.coeffs).max() < 1e-12 * max(1, np.abs(p.coeffs).max())
            psi = random_field(3, 3, seed=seed + 100)
            assert np.abs(leray_project(gradient(psi)).coeffs).max() < 1e-12

    def test_helmholtz_reconstruction(self):
        for seed in range(20):
            f = random_field(2, 5, components=2, seed=seed)
            g, s = helmholtz_decompose(f)
            assert np.abs((g + s).coeffs - f.coeffs).max() < 1e-12
            assert np.abs(divergence(s).coeffs).max() < 1e-12
            assert np.abs(curl(g).coeffs).max() < 1e-12


class TestBiotSavart:
    def test_constant_b(self):
        b = SpectralField.constant(3, 3, [0.0, 0.0, 2.0])
        a = biot_savart(b)
        assert np.abs(a.coeffs).max() == 0.0

    def test_round_trip_3d(self):
        raw = random_field(3, 3, components=3, seed=42)
        b = leray_project(raw)  # solenoidal input
        a = biot_savart(b)
        bmean = mean(b)
        recon = curl(a)
        target = b - SpectralField.constant(3, 3, bmean)
        assert np.abs(recon.coeffs - target.coeffs).max() < 1e-12
        assert np.abs(divergence(a).coeffs).max() < 1e-12
        assert np.abs(mean(a)).max() < 1e-15

    def test_round_trip_2d(self):
        b = random_field(2, 5, seed=9)
        a = biot_savart(b)
        recon = curl(a)
        target = b - SpectralField.constant(2, 5, mean(b))
        assert np.abs(recon.coeffs - target.coeffs).max() < 1e-12
        assert np.abs(divergence(a).coeffs).max() < 1e-12

    def test_l2_bound_sharp_constant(self):
        # ||grad A||_L2 <= ||B - <B>||_L2 with constant 1 in the spectral norm
        for seed in range(10):
            b = leray_project(random_field(3, 3, components=3, seed=seed))
            a = biot_savart(b)
            grad_a = gradient_stack(a)
            target = b - SpectralField.constant(3, 3, mean(b))
            assert l2_norm(grad_a) <= l2_norm(target) * (1 + 1e-12)

    def test_rejects_nonsolenoidal(self):
        f = SpectralField.from_modes(3, 3, 3, [(0, [1, 0, 0], 1.0)])
        with pytest.raises(ValidationError):
            biot_savart(f)

    @pytest.mark.parametrize("dim,components", [(2, 2), (3, 1), (1, 1)])
    def test_rejects_other_shapes(self, dim, components):
        with pytest.raises(ValidationError):
            biot_savart(random_field(dim, 2, components=components))


class TestCross:
    def test_matches_numpy_in_3d(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 7, 6)), rng.normal(size=(3, 7, 6))
        assert np.array_equal(sp.cross(a, b, 3), np.cross(a, b, axis=0))

    def test_matches_numpy_on_complex_wavevectors(self):
        ik = 1j * sp.mode_vectors(3, 2)
        c = random_field(3, 2, components=3, seed=4).coeffs
        assert np.array_equal(sp.cross(ik, c, 3), np.cross(ik, c, axis=0))

    def test_planar_rule_is_the_in_plane_part_of_the_3d_product(self):
        # (a1, a2, 0) x (0, 0, b) = (a2 b, -a1 b, 0)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 9)), rng.normal(size=(1, 9))
        a3 = np.concatenate([a, np.zeros((1, 9))])
        b3 = np.concatenate([np.zeros((2, 9)), b])
        assert np.array_equal(sp.cross(a, b, 2), np.cross(a3, b3, axis=0)[:2])

    def test_curl_is_i_k_cross_in_3d(self):
        f = random_field(3, 2, components=3, seed=6)
        ik = 1j * sp.mode_vectors(3, 2)
        assert np.array_equal(curl(f).coeffs, np.cross(ik, f.coeffs, axis=0))

    def test_other_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            sp.cross(np.ones((1, 3)), np.ones((1, 3)), 1)


class TestMeanAndReality:
    def test_mean_examples(self):
        f = SpectralField.constant(2, 4, 2.5) + cos_axis(2, 4, axis=1)
        assert mean(f)[0] == pytest.approx(2.5)
        s = SpectralField.from_modes(2, 4, 1, [(0, [0, 1], -0.5j)])  # sin(x2)
        assert mean(s)[0] == pytest.approx(0.0, abs=1e-15)

    def test_mean_imag_negligible(self):
        f = random_field(2, 6, seed=12)
        center = f.coeffs[(0,) + (6,) * 2]
        assert abs(center.imag) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reality_preserved_by_operations(self, seed):
        f = random_field(2, 5, seed=seed)
        g = random_field(2, 5, seed=seed + 1)
        for h in (multiply(f, g), derivative(f, 1), gradient(f), solve_poisson(
            SpectralField.constant(2, 5, 1.0) + (f - SpectralField.constant(2, 5, mean(f)[0]))
        )):
            assert reality_residual(h) < 1e-12


class TestDotAndL2:
    def test_parseval(self):
        f = cos_axis(2, 4, axis=1)
        assert l2_norm(f) ** 2 == pytest.approx(0.5, rel=1e-13)


class TestSerialization:
    """The shared binary reader behind `load_cloud` and `load_ensemble`."""

    @pytest.mark.parametrize("cut", [1, 16])
    def test_truncated_or_padded_file_rejected(self, tmp_path, cut):
        f = random_field(2, 3, components=2, seed=1)
        path = tmp_path / "f.bin"
        head = b'{"format": "vmvp-test-v1", "dim": 2, "cutoff": 3}\n'
        data = np.ascontiguousarray(f.coeffs, dtype=np.complex128).tobytes()

        def load():
            header, raw = sp.read_binary(path, "vmvp-test-v1", counts=("dim", "cutoff"))
            sp.expect_bytes(path, raw, data_len)
            return header, raw

        data_len = len(data)
        path.write_bytes(head + data)
        header, raw = load()
        assert header["cutoff"] == 3 and raw == data
        path.write_bytes(head + data[:-cut])
        with pytest.raises(ValidationError):
            load()
        path.write_bytes(head + data + b"\0" * cut)
        with pytest.raises(ValidationError):
            load()
