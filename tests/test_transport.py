import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    circular_w2_sq,
    circular_w2_sq_brute,
    refuse_dense,
    squared_costs_masked,
    take,
    w2_exact_brute,
    w2_from_cost_plain,
)
from vmvp import transport
from vmvp.errors import ValidationError
from vmvp.spectral import SpectralField
from vmvp.transport import (
    AUCTION_K,
    EmpiricalMeasure,
    _auction_candidates,
    _auction_prices,
    _squared_costs,
    cost_matrix_sq,
    coupling_Q,
    identity_pair_costs,
    loeper_check,
    rejection_sample_positions,
    w2_assignment,
    w2_exact,
)

TWO_PI = 2 * np.pi


def random_cloud(rng, n, d=2, dv=2, spread=1.0):
    x = rng.uniform(0, TWO_PI, (n, d))
    xi = rng.normal(0, spread, (n, dv))
    return EmpiricalMeasure.uniform(x, xi)


class FakeCloud:
    def __init__(self, x_vp, xi_vp, x_vm, xi_vm, weights):
        self.x_vp, self.xi_vp = np.asarray(x_vp, float), np.asarray(xi_vp, float)
        self.x_vm, self.xi_vm = np.asarray(x_vm, float), np.asarray(xi_vm, float)
        self.weights = np.asarray(weights, float)


def point_distance_sq(x, y):
    return cost_matrix_sq(EmpiricalMeasure.uniform([x]), EmpiricalMeasure.uniform([y]))[0, 0]


class TestMetric:
    def test_geodesic_wrap(self):
        assert point_distance_sq([0.1, 0.0], [TWO_PI - 0.1, 0.0]) == pytest.approx(0.04)

    def test_axis_distance_capped_at_pi(self):
        d2 = point_distance_sq([0.0], [np.pi + 1.0])
        assert d2 == pytest.approx((np.pi - 1.0) ** 2)


class TestW2Exact:
    def test_identical_clouds(self):
        mu = random_cloud(np.random.default_rng(0), 32)
        assert w2_exact(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_dirac_pair(self):
        r = 1.3
        mu = EmpiricalMeasure.uniform(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))
        nu = EmpiricalMeasure.uniform(np.array([[r, 0.0]]), np.array([[0.0, 0.0]]))
        assert w2_exact(mu, nu) == pytest.approx(r, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = rng.integers(2, 8)
            mu = random_cloud(rng, int(n))
            nu = random_cloud(rng, int(n))
            assert w2_exact(mu, nu) == pytest.approx(w2_exact_brute(mu, nu), abs=1e-12)

    def test_lp_path_matches_assignment(self):
        rng = np.random.default_rng(7)
        mu = random_cloud(rng, 12)
        nu = random_cloud(rng, 12)
        exact = w2_exact(mu, nu)
        mu_w = EmpiricalMeasure(mu.x, mu.xi, np.full(12, 1 / 12))
        lp = w2_exact(EmpiricalMeasure(mu_w.x, mu_w.xi, _perturb_uniform(12)), nu)
        # nearly-uniform weights must give nearly the assignment value
        assert lp == pytest.approx(exact, rel=5e-2)

    def test_lp_path_memory(self):
        # unequal sizes take the LP path; its 279 x 19200 equality matrix as a
        # dense array would alone be 43 MB
        rng = np.random.default_rng(5)
        mu, nu = random_cloud(rng, 120), random_cloud(rng, 160)
        tracemalloc.start()
        try:
            w2_exact(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_general_weights_dirac(self):
        mu = EmpiricalMeasure(np.array([[0.0]]), None, np.array([1.0]))
        nu = EmpiricalMeasure(np.array([[1.0], [TWO_PI - 1.0]]), None, np.array([0.5, 0.5]))
        val = w2_exact(mu, nu)
        assert val == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        mu, nu, la = (random_cloud(rng, 12) for _ in range(3))
        dmn = w2_exact(mu, nu)
        assert w2_exact(nu, mu) == pytest.approx(dmn, abs=1e-12)
        assert dmn + w2_exact(nu, la) >= w2_exact(mu, la) - 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        mu, nu = random_cloud(rng, 24), random_cloud(rng, 24)
        shift = np.array([1.7, 5.1])
        mu2 = EmpiricalMeasure.uniform((mu.x + shift) % TWO_PI, mu.xi)
        nu2 = EmpiricalMeasure.uniform((nu.x + shift) % TWO_PI, nu.xi)
        assert w2_exact(mu2, nu2) == pytest.approx(w2_exact(mu, nu), abs=1e-12)


def _perturb_uniform(n):
    w = np.full(n, 1.0 / n)
    w[0] += 1e-3
    w[1] -= 1e-3
    return w


class TestUniformWeights:
    @pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
    def test_exact_inverse_n_is_uniform(self, n):
        assert EmpiricalMeasure(np.zeros((n, 1)), None, np.full(n, 1.0 / n)).is_uniform()

    @pytest.mark.parametrize("n", [2, 7, 1000, 100_000])
    def test_relative_perturbation_is_not_uniform(self, n):
        w = np.full(n, 1.0 / n)
        w[0] += 1e-9 / n
        w[1] -= 1e-9 / n
        assert not EmpiricalMeasure(np.zeros((n, 1)), None, w).is_uniform()


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["x", "xi"])
    def test_measure_rejects_them(self, bad, part):
        rng = np.random.default_rng(8)
        arrays = {"x": rng.uniform(0, TWO_PI, (5, 2)), "xi": rng.normal(0, 1, (5, 2))}
        arrays[part][2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            EmpiricalMeasure.uniform(arrays["x"], arrays["xi"])

    @pytest.mark.parametrize("far_a,far_b", [(1e308, -1e308), (1e308, 0.0), (1e200, 0.0), (1e160, -1e160)])
    def test_momenta_whose_squared_gaps_overflow_raise(self, far_a, far_b):
        # finite momenta whose squared distance overflows: some pair cost is not a float, so all three refuse
        x = np.random.default_rng(9).uniform(0, TWO_PI, (3, 2))
        mu = EmpiricalMeasure.uniform(x, [[far_a, 0.0], [0.0, 0.0], [1.0, 0.0]])
        nu = EmpiricalMeasure.uniform(x, [[far_b, 0.0], [0.0, 0.0], [1.0, 0.0]])
        for solve in (w2_exact, identity_pair_costs, cost_matrix_sq):
            with pytest.raises(ValidationError, match="overflow"):
                solve(mu, nu)

    @pytest.mark.parametrize("n", [3, 200])  # the dense solve, and the sparse one above 2 AUCTION_K points
    def test_momenta_1e150_apart_still_answer(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(0, TWO_PI, (n, 2))
        xi = rng.normal(0, 1, (n, 2))
        far = xi.copy()
        far[0, 0] = 1e150
        w2 = w2_exact(EmpiricalMeasure.uniform(x, far), EmpiricalMeasure.uniform(x, xi))
        assert w2 == pytest.approx(1e150 / np.sqrt(n), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 200, 4096])
    @pytest.mark.parametrize("far", [1e153, 5e153, 1.1e154, 1.2e154, 1.3e154, 1.34e154, 6.6e151])
    def test_momenta_near_the_overflow_answer_or_refuse(self, n, far):
        # the sparse solve adds auction prices to the costs: squared gaps just below the
        # float range either answer or are refused, and the last value lies inside the
        # bound on those sums
        rng = np.random.default_rng(n)
        x = rng.uniform(0, TWO_PI, (n, 2))
        xi = rng.normal(0, 1, (n, 2))
        far_xi = xi.copy()
        far_xi[0, 0] = far
        try:
            w2 = w2_exact(EmpiricalMeasure.uniform(x, far_xi), EmpiricalMeasure.uniform(x, xi))
        except ValidationError:
            assert far > 6.6e151
            return
        assert w2 == pytest.approx(far / np.sqrt(n), rel=1e-12)


class TestMeasureWeights:
    def test_empty_cloud_rejected(self):
        with pytest.raises(ValidationError, match="at least one point"):
            EmpiricalMeasure.uniform(np.zeros((0, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", ["nan", "negative", "unnormalised"])
    def test_coupling_q_checks_the_cloud_weights(self, bad):
        rng = np.random.default_rng(4)
        x, xi = rng.uniform(0, TWO_PI, (6, 2)), rng.normal(0, 1, (6, 2))
        w = np.full(6, 1 / 6)
        assert np.isfinite(coupling_Q(FakeCloud(x, xi, x, xi + 0.1, w)))
        if bad == "nan":
            w[2] = np.nan
        elif bad == "negative":
            w[2], w[3] = -0.1, w[3] + 0.1 + 1 / 6
        else:
            w *= 1.5
        with pytest.raises(ValidationError, match="weights"):
            coupling_Q(FakeCloud(x, xi, x, xi + 0.1, w))


def _cost_matrix_sq_accumulated(mu, nu):
    """The cost matrix as a sum of fresh per-axis temporaries onto zeros."""
    d = np.zeros((mu.size, nu.size))
    for a in range(mu.x.shape[1]):
        diff = np.abs((mu.x[:, a] % TWO_PI)[:, None] - (nu.x[:, a] % TWO_PI)[None, :])
        np.minimum(diff, TWO_PI - diff, out=diff)
        d += diff * diff
    if mu.xi is not None:
        for a in range(mu.xi.shape[1]):
            diff = mu.xi[:, a, None] - nu.xi[None, :, a]
            d += diff * diff
    return d


class TestCostMatrix:
    @pytest.mark.parametrize("dx,dv", [(1, None), (2, None), (1, 1), (2, 2), (3, 3)])
    def test_bit_identical_to_accumulated_formula(self, dx, dv):
        rng = np.random.default_rng(10 * dx + (dv or 0))
        # positions off the fundamental cell and exactly pi apart exercise the wrap
        x1 = np.concatenate([rng.uniform(-7.0, 13.0, (60, dx)), np.full((1, dx), np.pi), np.zeros((1, dx))])
        x2 = np.concatenate([rng.uniform(-7.0, 13.0, (45, dx)), np.zeros((1, dx)), np.full((1, dx), TWO_PI)])
        v1 = None if dv is None else rng.normal(size=(x1.shape[0], dv))
        v2 = None if dv is None else rng.normal(size=(x2.shape[0], dv))
        mu, nu = EmpiricalMeasure.uniform(x1, v1), EmpiricalMeasure.uniform(x2, v2)
        got = cost_matrix_sq(mu, nu)
        assert got.shape == (62, 47)
        assert np.array_equal(got, _cost_matrix_sq_accumulated(mu, nu))

    @pytest.mark.parametrize("dx,dv", [(2, None), (2, 2), (3, 3)])
    def test_bit_equal_to_the_masked_fold(self, dx, dv):
        # the branch-free fold min(|dx|, 2pi - |dx|) against the masked one, on
        # coordinates exactly pi apart, at -1e-17 and 2pi, and over a row count
        # that spans several row blocks and ends in a partial one
        m = 64
        n = 2 * (transport._COST_BLOCK // m) + 3
        rng = np.random.default_rng(7 * dx + (dv or 0))
        x1, x2 = rng.uniform(-7.0, 13.0, (n, dx)), rng.uniform(-7.0, 13.0, (m, dx))
        x1[:4, 0], x2[:4, 0] = [0.0, np.pi, -1e-17, TWO_PI], [np.pi, 0.0, TWO_PI, np.pi]
        x1[4, :], x2[4, :] = -1e-17, TWO_PI
        v1 = None if dv is None else rng.normal(size=(n, dv))
        v2 = None if dv is None else rng.normal(size=(m, dv))
        mu, nu = EmpiricalMeasure.uniform(x1, v1), EmpiricalMeasure.uniform(x2, v2)
        assert np.array_equal(cost_matrix_sq(mu, nu), squared_costs_masked(mu, nu, outer=True))
        # the one-column cols form on index pairs: the first m mu points against nu
        head = EmpiricalMeasure.uniform(x1[:m], None if dv is None else v1[:m])
        got = _squared_costs(head, nu, np.arange(m)[:, None])[:, 0]
        assert np.array_equal(got, squared_costs_masked(head, nu, outer=False))
        rows = rng.integers(0, n, 5 * transport._COST_BLOCK // 2)
        cols = rng.integers(0, m, rows.size)
        a = take(mu, rows)
        got = _squared_costs(a, nu, cols[:, None])[:, 0]
        assert np.array_equal(got, squared_costs_masked(a, take(nu, cols), outer=False))


    @pytest.mark.parametrize("dx,dv", [(2, None), (2, 2), (3, 3)])
    def test_cols_form_is_the_matrix_entries(self, dx, dv):
        # rows spanning several row blocks of the cols form, repeated columns included
        rng = np.random.default_rng(5 * dx + (dv or 0))
        n, m, k = 3 * (transport._COST_BLOCK // 40) + 5, 90, 40
        x1, x2 = rng.uniform(-7.0, 13.0, (n, dx)), rng.uniform(-7.0, 13.0, (m, dx))
        v1 = None if dv is None else rng.normal(size=(n, dv))
        v2 = None if dv is None else rng.normal(size=(m, dv))
        mu, nu = EmpiricalMeasure.uniform(x1, v1), EmpiricalMeasure.uniform(x2, v2)
        cols = rng.integers(0, m, (n, k))
        got = _squared_costs(mu, nu, cols)
        assert got.shape == (n, k)
        assert np.array_equal(got, np.take_along_axis(cost_matrix_sq(mu, nu), cols, axis=1))


class TestAuctionCandidates:
    @pytest.mark.parametrize("case", ["positions", "wide momenta", "bootstrap gather"])
    def test_candidate_costs_are_each_rows_smallest_entries(self, case):
        rng = np.random.default_rng(11)
        mu, nu = random_cloud(rng, 400), random_cloud(rng, 400)
        if case == "positions":
            mu, nu = EmpiricalMeasure.uniform(mu.x), EmpiricalMeasure.uniform(nu.x)
        elif case == "wide momenta":
            mu, nu = random_cloud(rng, 400, spread=5.0), random_cloud(rng, 400, spread=5.0)
            assert np.ptp(np.concatenate([mu.xi, nu.xi]), axis=0).min() > TWO_PI
        else:
            idx = rng.integers(0, 400, 400)
            assert np.unique(idx).size < idx.size
            mu, nu = take(mu, idx), take(nu, idx)
        c, cand = _auction_candidates(mu, nu)
        cost = cost_matrix_sq(mu, nu)
        assert np.array_equal(np.take_along_axis(cost, cand, axis=1), c)
        assert np.array_equal(np.sort(c, axis=1), np.sort(cost, axis=1)[:, :AUCTION_K])


def nearby_cloud(mu, rng, step=1e-5):
    """mu moved by a small step, positions left unwrapped."""
    x = mu.x + rng.normal(0, step, mu.x.shape)
    xi = None if mu.xi is None else mu.xi + rng.normal(0, step, mu.xi.shape)
    return EmpiricalMeasure.uniform(x, xi)


class TestIdentityCertificate:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("momenta", [True, False])
    def test_pair_costs_are_the_cost_matrix_diagonal(self, d, momenta):
        rng = np.random.default_rng(d + 10 * momenta)
        x = rng.uniform(0, TWO_PI, (200, d))
        # off the fundamental cell, at 2pi itself and at a tiny negative value
        x[:3] += TWO_PI * np.array([[-2.0], [1.0], [3.0]])
        x[3, 0], x[4, 0] = TWO_PI, -1e-17
        mu = EmpiricalMeasure.uniform(x, rng.normal(size=(200, d)) if momenta else None)
        nu = nearby_cloud(mu, rng)
        pair = identity_pair_costs(mu, nu)
        assert pair is not None
        assert np.array_equal(pair, np.diag(cost_matrix_sq(mu, nu)))
        assert w2_exact(mu, nu) == np.sqrt(pair.mean())

    def test_swapped_close_pair_declines(self):
        rng = np.random.default_rng(3)
        mu = random_cloud(rng, 8)
        x, xi = mu.x.copy(), mu.xi.copy()
        x[1], xi[1] = x[0] + 0.01, xi[0] + 0.01
        mu = EmpiricalMeasure.uniform(x, xi)
        nu = nearby_cloud(mu, rng, step=1e-4)
        nu = EmpiricalMeasure.uniform(nu.x[[1, 0, 2, 3, 4, 5, 6, 7]], nu.xi[[1, 0, 2, 3, 4, 5, 6, 7]])
        assert identity_pair_costs(mu, nu) is None
        assert w2_exact(mu, nu) == pytest.approx(w2_exact_brute(mu, nu), abs=1e-12)
        assert w2_exact(mu, nu) ** 2 < np.diag(cost_matrix_sq(mu, nu)).mean()

    def test_independent_clouds_decline(self):
        rng = np.random.default_rng(4)
        assert identity_pair_costs(random_cloud(rng, 300), random_cloud(rng, 300)) is None

    def test_coincident_points_decline(self):
        rng = np.random.default_rng(5)
        mu = random_cloud(rng, 50)
        x, xi = mu.x.copy(), mu.xi.copy()
        x[7], xi[7] = x[3], xi[3]
        mu = EmpiricalMeasure.uniform(x, xi)
        assert identity_pair_costs(mu, mu) is None
        assert w2_exact(mu, mu) == 0.0

    def test_mismatched_spaces_raise_validation_errors(self):
        rng = np.random.default_rng(6)
        mu = random_cloud(rng, 10)
        for nu in (random_cloud(rng, 10, d=3), random_cloud(rng, 10, dv=3), EmpiricalMeasure.uniform(mu.x)):
            with pytest.raises(ValidationError):
                identity_pair_costs(mu, nu)


def ball_cloud(rng, n, crowd):
    """n torus points with momenta: crowd of them within 1e-6 of (pi, pi), the rest farther than 1 from it."""
    x = rng.uniform(0, TWO_PI, (4 * n, 2))
    x = x[np.hypot(*(x - np.pi).T) > 1.0][: n - crowd]
    x = np.concatenate([np.pi + rng.uniform(-1e-6, 1e-6, (crowd, 2)), x])
    return EmpiricalMeasure.uniform(x, rng.normal(0, 1e-7, (n, 2)))


class TestAuctionAndDenseFallback:
    """w2_exact above 2 AUCTION_K points, the auction's declines and the one cold dense fallback."""

    @pytest.mark.parametrize("n", [200, 1024])
    @pytest.mark.parametrize("momenta", [True, False])
    def test_random_torus_clouds(self, n, momenta):
        rng = np.random.default_rng(n + momenta)
        mu, nu = random_cloud(rng, n), random_cloud(rng, n)
        if not momenta:
            mu, nu = EmpiricalMeasure.uniform(mu.x), EmpiricalMeasure.uniform(nu.x)
        assert _auction_prices(*_auction_candidates(mu, nu)) is not None
        assert w2_exact(mu, nu) == pytest.approx(w2_from_cost_plain(cost_matrix_sq(mu, nu)), rel=1e-13)

    def test_bootstrap_gather_with_repeated_indices(self):
        # repeated indices make coincident points, so optimal assignments tie exactly
        rng = np.random.default_rng(2)
        mu, nu = random_cloud(rng, 300), random_cloud(rng, 300)
        for _ in range(3):
            idx = rng.integers(0, 300, 300)
            assert np.unique(idx).size < idx.size
            mu_b, nu_b = take(mu, idx), take(nu, idx)
            assert _auction_prices(*_auction_candidates(mu_b, nu_b)) is not None
            want = w2_from_cost_plain(cost_matrix_sq(mu_b, nu_b))
            assert w2_exact(mu_b, nu_b) == pytest.approx(want, rel=1e-13)

    def test_candidates_without_a_matching_fall_back(self, monkeypatch):
        # 60 mu points in a tiny ball, exactly AUCTION_K nu points near it: those
        # rows' candidates are the same AUCTION_K columns, so a maximum matching
        # leaves at least 60 - AUCTION_K rows out and no phase can end; the
        # auction checks the matching after AUCTION_CHECK_ROUNDS rounds of its
        # first phase, declines, and the solver runs on the cost matrix as it is
        real, rounds = transport._bid, []

        def count(*args):
            rounds.append(1)
            return real(*args)

        monkeypatch.setattr(transport, "_bid", count)
        rng = np.random.default_rng(3)
        mu, nu = ball_cloud(rng, 200, 60), ball_cloud(rng, 200, AUCTION_K)
        assert 60 - AUCTION_K > transport.AUCTION_FREE_ROWS
        c, cand = _auction_candidates(mu, nu)
        assert np.array_equal(np.sort(cand[:60], axis=1), np.tile(np.arange(AUCTION_K), (60, 1)))
        assert _auction_prices(c, cand) is None
        assert len(rounds) == transport.AUCTION_CHECK_ROUNDS
        assert_one_cold_solve(monkeypatch, mu, nu)

    def test_a_stalled_lifted_first_phase_declines(self, monkeypatch):
        # costs spread by less than AUCTION_LIFT_EPS put the first phase on the
        # lifted candidates; here 60 rows share AUCTION_K columns there too, so
        # the phase cannot end and the auction declines after
        # AUCTION_CHECK_ROUNDS rounds, as on its own candidates
        real, rounds, lifts = transport._bid, [], []

        def count(*args):
            rounds.append(1)
            return real(*args)

        def lift(price):
            lifts.append(price.copy())
            return c, cand

        monkeypatch.setattr(transport, "_bid", count)
        rest = np.arange(140)[:, None] + np.arange(AUCTION_K)
        cand = np.concatenate([np.tile(np.arange(AUCTION_K), (60, 1)), AUCTION_K + rest % (200 - AUCTION_K)])
        c = np.random.default_rng(6).uniform(0, 1e-5, cand.shape)
        assert _auction_prices(c, cand, lift=lift) is None
        assert len(lifts) == 1 and not lifts[0].any()
        assert len(rounds) == transport.AUCTION_CHECK_ROUNDS

    def test_an_auction_out_of_rounds_declines_to_the_cold_solver(self, monkeypatch):
        # an auction stopped at AUCTION_MAX_ROUNDS declines like a stalled
        # first phase: the solver sees the cost matrix as it is
        monkeypatch.setattr(transport, "AUCTION_MAX_ROUNDS", 5)
        rng = np.random.default_rng(21)
        mu, nu = random_cloud(rng, 1024), random_cloud(rng, 1024)
        auctions = spy(monkeypatch, "_auction_prices")
        assert_one_cold_solve(monkeypatch, mu, nu)
        assert auctions == [None]

    def test_small_matrices_skip_the_auction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the auction ran below its threshold")

        monkeypatch.setattr(transport, "_auction_prices", refuse)
        rng = np.random.default_rng(4)
        mu, nu = random_cloud(rng, 2 * AUCTION_K), random_cloud(rng, 2 * AUCTION_K)
        assert w2_assignment(mu, nu) == w2_from_cost_plain(cost_matrix_sq(mu, nu))

    def test_w2_exact_holds_one_matrix(self, monkeypatch):
        # the dense fallback's only n x n array is the cost matrix handed to the
        # solver; these clouds are certified unless the auction runs out of rounds
        monkeypatch.setattr(transport, "AUCTION_MAX_ROUNDS", 5)
        n = 2048
        rng = np.random.default_rng(9)
        mu, nu = random_cloud(rng, n), random_cloud(rng, n)
        solved = spy(monkeypatch, "linear_sum_assignment")
        tracemalloc.start()
        try:
            w2_exact(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(solved) == 1
        assert peak <= 1.3 * 8 * n * n


def assert_one_cold_solve(monkeypatch, mu, nu):
    """w2_exact(mu, nu) solves cost_matrix_sq(mu, nu) once, as it is, and equals the cold oracle bit for bit."""
    real, solved = transport.linear_sum_assignment, []

    def record(matrix):
        solved.append(matrix.copy())
        return real(matrix)

    monkeypatch.setattr(transport, "linear_sum_assignment", record)
    got = w2_exact(mu, nu)
    cost = cost_matrix_sq(mu, nu)
    assert len(solved) == 1 and np.array_equal(solved[0], cost)
    assert got == w2_from_cost_plain(cost)


def spy(monkeypatch, name):
    """Record each return value of transport.<name>."""
    real, seen = getattr(transport, name), []

    def call(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(transport, name, call)
    return seen


def crowd_cloud(rng, crowd, radius):
    """300 uniform torus points plus crowd points within radius of (pi, pi), positions only."""
    x = np.concatenate([rng.uniform(0, TWO_PI, (300, 2)), np.pi + rng.uniform(-radius, radius, (crowd, 2))])
    return EmpiricalMeasure.uniform(x)


CROWDS = [(50, 1e-6, seed) for seed in range(3)] + [(200, 2e-2, seed) for seed in range(3)]


def completion_pairs(monkeypatch, mu, nu):
    """(result, result with unlimited Dijkstra searches) of each _complete call of w2_assignment(mu, nu)."""
    from scipy.sparse import csgraph

    real_complete, real_dijkstra, calls = transport._complete, csgraph.dijkstra, []

    def record(*args):
        calls.append((args, real_complete(*args)))
        return calls[-1][1]

    def unlimited(*args, limit=None, **kwargs):
        return real_dijkstra(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(transport, "_complete", record)
        w2_assignment(mu, nu)
    with monkeypatch.context() as m:
        m.setattr(csgraph, "dijkstra", unlimited)
        return [(got, real_complete(*args)) for args, got in calls]


def assert_same_completion(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestCertifiedAssignment:
    """w2_exact above 2 AUCTION_K points by the certified sparse solve, against the cold dense oracle."""

    def test_auction_queries_the_lift_once(self, monkeypatch):
        # the first phase ends well before AUCTION_CHECK_ROUNDS, and the first
        # pass reuses the lift's query, which the certificate accepts
        rng = np.random.default_rng(40)
        mu, nu = (EmpiricalMeasure.uniform(rng.uniform(0, TWO_PI, (4096, 2))) for _ in range(2))
        want = w2_from_cost_plain(cost_matrix_sq(mu, nu))
        queries = spy(monkeypatch, "_lifted_neighbours")
        refuse_dense(monkeypatch)
        assert w2_exact(mu, nu) == pytest.approx(want, rel=1e-13)
        assert len(queries) == 1

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("momenta", [True, False])
    def test_bounded_searches_complete_as_unbounded_ones(self, n, momenta, monkeypatch):
        rng = np.random.default_rng(5 * n + momenta)
        mu, nu = random_cloud(rng, n), random_cloud(rng, n)
        if not momenta:
            mu, nu = EmpiricalMeasure.uniform(mu.x), EmpiricalMeasure.uniform(nu.x)
        pairs = completion_pairs(monkeypatch, mu, nu)
        assert pairs
        for got, want in pairs:
            assert_same_completion(got, want)

    def test_completion_declines_a_price_rise_past_its_cap(self, monkeypatch):
        # the cap keeps costs plus prices in the float range (_check_same_space);
        # at the input's own largest price no price may rise at all
        rng = np.random.default_rng(17)
        mu, nu = random_cloud(rng, 1024), random_cloud(rng, 1024)
        real_complete, calls = transport._complete, []
        monkeypatch.setattr(transport, "_complete", lambda *args: calls.append(args) or real_complete(*args))
        w2_assignment(mu, nu)
        rising = [args for args in calls if (done := real_complete(*args)) is not None and (done[1] > args[2]).any()]
        assert rising
        for args in rising:
            assert real_complete(*args[:4], float(args[2].max())) is None

    @pytest.mark.parametrize("crowd, radius, seed", CROWDS)
    def test_crowds_complete_as_unbounded_searches_and_match_the_oracle(self, crowd, radius, seed, monkeypatch):
        # a crowd in both clouds can hold every candidate of its free rows, so
        # a completion may find no path, and the unbounded search must agree
        rng = np.random.default_rng(seed)
        mu, nu = crowd_cloud(rng, crowd, radius), crowd_cloud(rng, crowd, radius)
        for got, want in completion_pairs(monkeypatch, mu, nu):
            assert_same_completion(got, want)
        assert w2_exact(mu, nu) == pytest.approx(w2_from_cost_plain(cost_matrix_sq(mu, nu)), rel=1e-13)

    @pytest.mark.parametrize("n", [200, 1024, 4096])
    @pytest.mark.parametrize("momenta", [True, False])
    def test_random_torus_clouds(self, n, momenta, monkeypatch):
        rng = np.random.default_rng(7 * n + momenta)
        mu, nu = random_cloud(rng, n), random_cloud(rng, n)
        if not momenta:
            mu, nu = EmpiricalMeasure.uniform(mu.x), EmpiricalMeasure.uniform(nu.x)
        want = w2_from_cost_plain(cost_matrix_sq(mu, nu))
        refuse_dense(monkeypatch)
        assert w2_exact(mu, nu) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("momenta", [True, False])
    def test_bootstrap_gathers_with_repeated_indices(self, momenta, monkeypatch):
        # coincident points make optimal assignments tie exactly
        rng = np.random.default_rng(12 + momenta)
        mu, nu = random_cloud(rng, 400), random_cloud(rng, 400)
        if not momenta:
            mu, nu = EmpiricalMeasure.uniform(mu.x), EmpiricalMeasure.uniform(nu.x)
        gathers = []
        for _ in range(3):
            idx = rng.integers(0, 400, 400)
            assert np.unique(idx).size < idx.size
            mu_b, nu_b = take(mu, idx), take(nu, idx)
            gathers.append((mu_b, nu_b, w2_from_cost_plain(cost_matrix_sq(mu_b, nu_b))))
        refuse_dense(monkeypatch)
        for mu_b, nu_b, want in gathers:
            assert w2_assignment(mu_b, nu_b) == pytest.approx(want, rel=1e-13)

    def test_a_free_row_without_an_augmenting_path_declines(self, monkeypatch):
        # 50 mu points in a tiny ball share its AUCTION_K nu points: a maximum
        # matching leaves 2 of them out, few enough for the auction, but no
        # path from a free one reaches a free column
        rng = np.random.default_rng(3)
        mu, nu = ball_cloud(rng, 200, 50), ball_cloud(rng, 200, AUCTION_K)
        auctions, completions = spy(monkeypatch, "_auction_prices"), spy(monkeypatch, "_complete")
        assert_one_cold_solve(monkeypatch, mu, nu)
        assert auctions[0] is not None and completions == [None]

    def test_survivors_beyond_the_kth_neighbour_decline(self, monkeypatch):
        # an auction stopped at epsilon 0.03 leaves each of 400 rows up to 0.03
        # short of its best column, so the gap S exceeds the spread of every
        # row's AUCTION_K nearest reduced costs and an optimal edge could lie
        # beyond them, on every pass
        monkeypatch.setattr(transport, "AUCTION_EPS_FINAL", 0.03)
        rng = np.random.default_rng(8)
        mu, nu = (EmpiricalMeasure.uniform(rng.uniform(0, TWO_PI, (400, 2))) for _ in range(2))
        completions, proofs = spy(monkeypatch, "_complete"), spy(monkeypatch, "_certified_columns")
        assert_one_cold_solve(monkeypatch, mu, nu)
        assert None not in completions and proofs == [None] * transport.CERT_PASSES

    def test_certified_w2_exact_holds_no_matrix(self, monkeypatch):
        # the sparse path's arrays are n x (AUCTION_K + AUCTION_LIFT) at most
        n = 2048
        rng = np.random.default_rng(9)
        mu, nu = random_cloud(rng, n), random_cloud(rng, n)
        w2_exact(mu, nu)  # loads the csgraph modules outside the trace
        refuse_dense(monkeypatch)
        tracemalloc.start()
        try:
            w2_exact(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4


class TestCircular:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            a = rng.uniform(0, TWO_PI, n)
            b = rng.uniform(0, TWO_PI, n)
            assert circular_w2_sq(a, b) == pytest.approx(circular_w2_sq_brute(a, b), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, TWO_PI, 50)
        b = rng.uniform(0, TWO_PI, 50)
        base = circular_w2_sq(a, b)
        s = 2.2
        assert circular_w2_sq((a + s) % TWO_PI, (b + s) % TWO_PI) == pytest.approx(base, abs=1e-12)


class TestCouplingQ:
    def test_zero_at_shared_start(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, TWO_PI, (16, 2))
        xi = rng.normal(0, 1, (16, 2))
        cloud = FakeCloud(x, xi, x, xi, np.full(16, 1 / 16))
        assert coupling_Q(cloud) == 0.0

    def test_hand_value(self):
        x_vp = np.array([[0.0, 0.0], [0.0, 0.0]])
        x_vm = np.array([[1.0, 0.0], [0.0, 0.0]])
        xi_vp = np.zeros((2, 2))
        xi_vm = np.array([[0.0, 0.0], [0.0, 1.0]])
        cloud = FakeCloud(x_vp, xi_vp, x_vm, xi_vm, np.array([0.5, 0.5]))
        assert coupling_Q(cloud) == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [2, 3])
    def test_half_the_weighted_cost_matrix_diagonal(self, d):
        # 2Q is the index pairing's cost in cost_matrix_sq's own floats, on and off the cell
        rng = np.random.default_rng(20 + d)
        n = 40
        x_vp, x_vm = rng.uniform(-7.0, 13.0, (n, d)), rng.uniform(-7.0, 13.0, (n, d))
        x_vp[:4, 0], x_vm[:4, 0] = [0.0, np.pi, TWO_PI, -1e-17], [np.pi, TWO_PI, -1e-17, 0.0]
        x_vp[4], x_vm[4] = -1e-17, TWO_PI
        xi_vp, xi_vm = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        w = rng.uniform(0.5, 1.5, n)
        w /= w.sum()
        cloud = FakeCloud(x_vp, xi_vp, x_vm, xi_vm, w)
        c = cost_matrix_sq(EmpiricalMeasure.uniform(x_vp, xi_vp), EmpiricalMeasure.uniform(x_vm, xi_vm))
        assert coupling_Q(cloud) == float(0.5 * (w * np.diag(c)).sum())

    def test_w2_bounded_by_pairing(self):
        rng = np.random.default_rng(9)
        n = 64
        x = rng.uniform(0, TWO_PI, (n, 2))
        xi = rng.normal(0, 1, (n, 2))
        x2 = (x + rng.normal(0, 0.1, (n, 2))) % TWO_PI
        xi2 = xi + rng.normal(0, 0.1, (n, 2))
        cloud = FakeCloud(x, xi, x2, xi2, np.full(n, 1 / n))
        w2 = w2_exact(EmpiricalMeasure.uniform(x, xi), EmpiricalMeasure.uniform(x2, xi2))
        assert w2 ** 2 <= 2 * coupling_Q(cloud) + 1e-12


def bounded_density(K, rng, amp=0.3):
    entries = [(0, [0, 0], 1.0)]
    for _ in range(4):
        k = [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))]
        if k == [0, 0]:
            continue
        c = complex(rng.uniform(-amp, amp), rng.uniform(-amp, amp)) / 8
        entries.append((0, k, c))
    return SpectralField.from_modes(2, K, 1, entries)


class TestLoeper:
    def test_identical_densities(self):
        rho = bounded_density(8, np.random.default_rng(0))
        lhs, rhs, ok = loeper_check(rho, rho, n_samples=256, seed=1)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert ok

    def test_translation_pair_strict(self):
        K, s = 8, 0.15
        rho1 = SpectralField.from_modes(2, K, 1, [(0, [0, 0], 1.0), (0, [1, 0], 0.1)])
        rho2 = SpectralField.from_modes(2, K, 1, [(0, [0, 0], 1.0), (0, [1, 0], 0.1 * np.exp(-1j * s))])
        lhs, rhs, ok = loeper_check(rho1, rho2, n_samples=1024, seed=2)
        assert ok
        assert lhs < rhs  # strictly inside the bound for a small translation

    def test_rejects_nonpositive(self):
        K = 8
        rho1 = SpectralField.from_modes(2, K, 1, [(0, [0, 0], 1.0), (0, [1, 0], 0.6)])
        rho2 = SpectralField.constant(2, K, 1.0)
        with pytest.raises(ValidationError):
            loeper_check(rho1, rho2, 64, seed=0)


class TestSampling:
    def test_uniform_density(self):
        rho = SpectralField.constant(2, 4, 1.0)
        pts = rejection_sample_positions(rho, 500, np.random.default_rng(0))
        assert pts.shape == (500, 2)
        assert (pts >= 0).all() and (pts < TWO_PI).all()

    def test_mode_density_statistics(self):
        # P(x1 < pi) for rho = 1 + 0.5 sin(x1) is 1/2 + 1/(2pi)
        rho = SpectralField.from_modes(2, 6, 1, [(0, [1, 0], -0.25j)])
        rho = rho + SpectralField.constant(2, 6, 1.0)
        pts = rejection_sample_positions(rho, 20000, np.random.default_rng(3))
        frac = (pts[:, 0] < np.pi).mean()
        expect = 0.5 + 0.5 / np.pi
        assert frac == pytest.approx(expect, abs=0.01)
