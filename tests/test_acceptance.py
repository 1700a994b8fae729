"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its measured quantities and wall time.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines live.  Wall
budgets are desktop-class targets; content is asserted strictly, runtime
loosely (2x budget) so a loaded machine does not flip results.
"""

import copy
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations

import numpy as np
import pytest

from vmvp import spectral as sp
from vmvp.config import build_em_state, build_ensemble, load_config, resolve_config_path
from vmvp.fields import _duhamel_series
from vmvp.harness import STEP_COLUMNS, osgood_diagnostic, run_pair, run_sweep
from vmvp.multifluid import ck_iterate, total_energy, vm_step_full
from vmvp.spectral import (
    AnalyticNormParams,
    SpectralField,
    analytic_norm,
    curl,
    derivative,
    divergence,
    gradient,
    helmholtz_decompose,
    leray_project,
    mean,
    multiply,
)
from vmvp.transport import EmpiricalMeasure, cost_matrix_sq, loeper_check, w2_exact

_RESULTS = []
_SECONDS = {}          # each criterion's own wall time
_FIXTURE_SECONDS = {}  # shared-run wall times, charged by test_zz_summary to the criteria that request them
_FIXTURE_CRITERIA = {"sweep_report": (4, 6, 9, 10), "small_pair": (6, 10)}


def _report(num, name, passed, detail, t0, budget):
    elapsed = time.time() - t0
    _SECONDS[num] = elapsed
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE] criterion {num} ({name}): {status} in {elapsed:.1f}s (budget {budget}s) - {detail}"
    print(line, flush=True)
    _RESULTS.append(line)
    assert passed, line
    assert elapsed < 2 * budget, f"criterion {num} exceeded twice its wall budget: {elapsed:.1f}s"


def random_field(dim, cutoff, components, rng, decay=0.8):
    n = sp.padded_grid_size(cutoff)
    f = SpectralField.from_grid(rng.standard_normal((components,) + (n,) * dim), cutoff)
    damp = np.exp(-decay * sp.mode_norms(dim, cutoff))
    return SpectralField(dim, cutoff, f.coeffs * damp)


# ----------------------------------------------------------------------
# shared runs (computed once, reused by several criteria)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_cfg():
    return load_config(resolve_config_path("bundled/sweep2d"))


@pytest.fixture(scope="module")
def sweep_report(sweep_cfg):
    t0 = time.time()
    report = run_sweep(sweep_cfg)
    _FIXTURE_SECONDS["sweep_report"] = time.time() - t0
    return report


@pytest.fixture(scope="module")
def small_pair():
    t0 = time.time()
    cfg = load_config(resolve_config_path("bundled/small2d"))
    pair = cfg, run_pair(cfg, cfg.eps_list[0])
    _FIXTURE_SECONDS["small_pair"] = time.time() - t0
    return pair


def test_criterion_1_analytic_norm_algebra():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_alg = 0.0
    worst_der = 0.0
    for _ in range(100):
        f = random_field(2, 8, 1, rng)
        g = random_field(2, 8, 1, rng)
        prod = multiply(f, g)
        for delta in (1.2, 1.5, 2.0):
            lhs = analytic_norm(prod, delta)
            rhs = analytic_norm(f, delta) * analytic_norm(g, delta)
            worst_alg = max(worst_alg, (lhs - rhs) / max(rhs, 1e-300))
        for dprime, delta in ((1.2, 1.5), (1.5, 2.0)):
            for axis in (1, 2):
                lhs = analytic_norm(derivative(f, axis), dprime)
                rhs = delta / (delta - dprime) * analytic_norm(f, delta)
                worst_der = max(worst_der, (lhs - rhs) / max(rhs, 1e-300))
    ok = worst_alg <= 1e-10 and worst_der <= 1e-10
    _report(1, "analytic-norm algebra", ok,
            f"worst rel excess: algebra {worst_alg:.2e}, derivative {worst_der:.2e}", t0, 10)


def test_criterion_2_projection_exactness():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            f = random_field(3, 3, 3, rng)
        else:
            f = random_field(2, 6, 2, rng)
        scale = max(np.abs(f.coeffs).max(), 1e-30)
        p = leray_project(f)
        worst = max(worst, np.abs(leray_project(p).coeffs - p.coeffs).max() / scale)
        worst = max(worst, np.abs(divergence(p).coeffs).max() / scale)
        gpart, spart = helmholtz_decompose(f)
        worst = max(worst, np.abs((gpart + spart).coeffs - f.coeffs).max() / scale)
        # vector-potential round trip: solenoidal B in 3d, scalar B in 2d
        if i % 2 == 0:
            b = leray_project(f)
        else:
            b = random_field(2, 6, 1, rng)
        a = sp.biot_savart(b)
        target = b - SpectralField.constant(b.dim, b.cutoff, mean(b))
        bscale = max(np.abs(b.coeffs).max(), 1e-30)
        worst = max(worst, np.abs(curl(a).coeffs - target.coeffs).max() / bscale)
        worst = max(worst, np.abs(divergence(a).coeffs).max() / bscale)
        worst = max(worst, np.abs(mean(a)).max() / bscale)
    ok = worst <= 1e-12
    _report(2, "projection/decomposition exactness", ok, f"worst residual {worst:.2e}", t0, 10)


def _wave_a(K, eps, dt, n, a_amp=0.0, w_amp=0.0, src=None, amp=np.ones_like):
    """A(n dt) by `_duhamel_series`, the quadrature ck_iterate runs.

    A(0) = a_amp cos(x1) e2 and eps dA/dt(0) = w_amp cos(x1) e1; the source
    amp(t_j) P(src), Leray-projected, is sampled at t_j = j dt (none when src
    is None).
    """
    a0 = SpectralField.from_modes(2, K, 2, [(1, [1, 0], a_amp / 2)]).coeffs
    w0 = SpectralField.from_modes(2, K, 2, [(0, [1, 0], w_amp / 2)]).coeffs
    times = dt * np.arange(n + 1)
    s = np.zeros_like(a0) if src is None else sp.leray_project(src).coeffs
    a, _ = _duhamel_series(amp(times)[:, None, None, None] * s, a0, w0, times, eps, 2, K)
    return a[-1]


def test_criterion_3_oscillatory_integrator():
    t0 = time.time()
    K = 8
    worst_free = 0.0
    for eps in (0.4, 0.05):
        for dt in (1e-2, 1e-3):
            n = int(round(1.0 / dt))
            t = n * dt
            got = _wave_a(K, eps, dt, n, a_amp=0.5)[1, K + 1, K].real
            worst_free = max(worst_free, abs(got - 0.25 * np.cos(t / eps)))
            got = _wave_a(K, eps, dt, n, w_amp=0.4)[0, K + 1, K].real
            worst_free = max(worst_free, abs(got - 0.2 * np.sin(t / eps)))

    # constant source: the series is exact for it; compare to Simpson
    # quadrature of the oscillatory integral
    from scipy.integrate import simpson

    worst_const = 0.0
    for eps in (0.4, 0.05):
        src = SpectralField.from_modes(2, K, 2, [(1, [1, 0], 0.4)])
        T = 0.5
        for dt in (1e-2, 1e-3):
            got = _wave_a(K, eps, dt, int(round(T / dt)), src=src)[1, K + 1, K].real
            s_grid = np.linspace(0, T, 40001)
            oracle = simpson(np.sin((T - s_grid) / eps) * 0.4, x=s_grid)
            worst_const = max(worst_const, abs(got - oracle))

    # time-varying source sampled at the grid times: order >= 2 against the oracle
    eps = 0.2
    amp = lambda t: 0.4 * np.cos(3.0 * t)
    src_mode = SpectralField.from_modes(2, K, 2, [(1, [1, 0], 1.0)])
    T = 0.5
    errs = []
    s_grid = np.linspace(0, T, 80001)
    oracle = simpson(np.sin((T - s_grid) / eps) * amp(s_grid), x=s_grid)
    for dt in (2e-2, 1e-2, 5e-3):
        got = _wave_a(K, eps, dt, int(round(T / dt)), src=src_mode, amp=amp)[1, K + 1, K].real
        errs.append(abs(got - oracle))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = worst_free <= 1e-10 and worst_const <= 1e-9 and min(orders) >= 1.7
    _report(3, "oscillatory wave integrator", ok,
            f"free-run err {worst_free:.2e}, const-source err {worst_const:.2e}, "
            f"varying-source orders {orders[0]:.2f}/{orders[1]:.2f}", t0, 30)


def test_criterion_4_conservation(sweep_report):
    t0 = time.time()
    # the sweep's eps = 0.2 pair: particles never act on the fluid, so its rows are a particle-free pair run's
    cols = sweep_report.runs[sweep_report.eps_values.index(0.2)].step_rows
    col = {name: i for i, name in enumerate(STEP_COLUMNS.split(","))}
    mean_b_drift = cols[:, col["mean_b_drift"]].max()
    ledger = cols[:, col["ledger_residual"]].max()
    j_vp_drift = cols[:, col["mean_j_vp_drift"]].max()
    e_vm = cols[:, col["energy_vm"]]
    energy_drift = np.abs(e_vm - e_vm[0]).max() / abs(e_vm[0])

    # refinement on a configuration with visible integrator signal
    ck_cfg = copy.deepcopy(load_config(resolve_config_path("bundled/ck2d")))
    ck_cfg.e0_modes = [(1, (1, 0), 0.15), (0, (0, 2), 0.1)]
    ck_cfg.b0_modes = [(0, (0, 0), 0.2), (0, (0, 1), 0.1), (0, (1, 1), 0.05)]
    eps = 0.35

    def drift(dt, T=0.4):
        ens = build_ensemble(ck_cfg, eps)
        em = build_em_state(ck_cfg, eps)
        e0 = total_energy(ens, em)
        worst = 0.0
        for _ in range(int(round(T / dt))):
            res = vm_step_full(ens, em, dt)
            ens, em = res.ensemble, res.em
            worst = max(worst, abs(total_energy(ens, em) - e0) / abs(e0))
        return worst

    ds = [drift(dt) for dt in (4e-2, 2e-2, 1e-2)]
    orders = [np.log2(ds[i] / ds[i + 1]) for i in range(2)]
    ok = (
        mean_b_drift <= 1e-12
        and j_vp_drift <= 1e-8
        and ledger <= 1e-8
        and energy_drift <= 1e-4
        and min(orders) >= 3.5
    )
    _report(4, "conservation", ok,
            f"<B> drift {mean_b_drift:.1e}, <j_vp> drift {j_vp_drift:.1e}, ledger {ledger:.1e}, "
            f"energy drift {energy_drift:.1e}, refinement orders {orders[0]:.2f}/{orders[1]:.2f}", t0, 300)


def test_criterion_5_ot_oracle():
    t0 = time.time()
    rng = np.random.default_rng(505)
    perm_cache = {n: np.array(list(permutations(range(n)))) for n in range(2, 9)}
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        mu = EmpiricalMeasure.uniform(rng.uniform(0, 2 * np.pi, (n, 2)), rng.normal(0, 1, (n, 2)))
        nu = EmpiricalMeasure.uniform(rng.uniform(0, 2 * np.pi, (n, 2)), rng.normal(0, 1, (n, 2)))
        cost = cost_matrix_sq(mu, nu)
        perms = perm_cache[n]
        brute = np.sqrt(cost[np.arange(n), perms].sum(axis=1).min() / n)
        worst = max(worst, abs(w2_exact(mu, nu) - brute))
    worst_axiom = 0.0
    for _ in range(100):
        a, b, c = (
            EmpiricalMeasure.uniform(rng.uniform(0, 2 * np.pi, (12, 2)), rng.normal(0, 1, (12, 2)))
            for _ in range(3)
        )
        dab, dba = w2_exact(a, b), w2_exact(b, a)
        worst_axiom = max(worst_axiom, abs(dab - dba))
        worst_axiom = max(worst_axiom, abs(w2_exact(a, a)))
        tri = w2_exact(a, c) - (dab + w2_exact(b, c))
        worst_axiom = max(worst_axiom, tri)
    ok = worst <= 1e-12 and worst_axiom <= 1e-10
    _report(5, "OT oracle equivalence", ok,
            f"assignment-vs-brute max gap {worst:.2e}, axiom residual {worst_axiom:.2e}", t0, 30)


def test_criterion_6_coupling_bound(sweep_report, small_pair):
    t0 = time.time()
    violations = 0
    total = 0
    runs = list(sweep_report.runs) + [small_pair[1]]
    for rep in runs:
        for w2, q, se in zip(rep.w2, rep.q, rep.w2_se):
            total += 1
            if w2 ** 2 > 2 * q + 3 * se:
                violations += 1
    ok = violations == 0 and total > 0
    _report(6, "coupling bound W2^2 <= 2Q", ok,
            f"{total} snapshots across {len(runs)} runs, {violations} violations", t0, 60)


def _loeper_case(seed):
    rng = np.random.default_rng(seed)
    K = 8

    def draw():
        entries = [(0, (0, 0), 1.0)]
        for _ in range(5):
            k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if k == (0, 0):
                continue
            amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.05
            entries.append((0, k, amp))
        return SpectralField.from_modes(2, K, 1, entries)

    rho1, rho2 = draw(), draw()
    return loeper_check(rho1, rho2, n_samples=4096, seed=seed, slack=0.10)


def test_criterion_7_loeper_inequality():
    t0 = time.time()
    seeds = list(range(700, 750))
    import os

    from oracles import worker_count

    workers = worker_count(default=min(4, os.cpu_count() or 1))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_loeper_case, seeds))
    else:
        results = [_loeper_case(s) for s in seeds]
    n_pass = sum(ok for _, _, ok in results)
    margins = [l / r for l, r, _ in results if r > 0]
    ok = n_pass == len(seeds)
    _report(7, "Loeper inequality", ok,
            f"{n_pass}/{len(seeds)} pairs pass at 10% slack, worst lhs/rhs {max(margins):.3f}", t0, 120)


def test_criterion_8_ck_contraction():
    t0 = time.time()
    cfg = load_config(resolve_config_path("bundled/ck2d"))
    eps = cfg.eps_list[0]
    ens = build_ensemble(cfg, eps)
    em = build_em_state(cfg, eps)
    p = AnalyticNormParams(delta0=cfg.delta0, delta=cfg.delta1, eta=cfg.eta, beta=cfg.loss_beta)
    rep = ck_iterate(ens, em, p, n_max=10, n_time=cfg.ck_n_time)
    # ratios[m] = d_{m+2}/d_{m+1}; n in [3,8] means indices 1..6
    window = rep.ratios[1:7]
    contraction_ok = len(window) == 6 and all(r <= 0.75 for r in window) and not rep.diverged

    n_steps = cfg.ck_n_time
    dt = rep.horizon / n_steps
    cur, m = ens, em
    for _ in range(n_steps):
        res = vm_step_full(cur, m, dt)
        cur, m = res.ensemble, res.em
    err = max(np.abs(rep.rho_traj[-1] - cur.rho).max(), np.abs(rep.xi_traj[-1] - cur.xi).max())
    ok = contraction_ok and err <= 1e-6
    _report(8, "analytic fixed-point contraction", ok,
            f"ratios n=3..8: {['%.3f' % r for r in window]}, limit-vs-stepping err {err:.2e}", t0, 300)


def test_criterion_9_nonrelativistic_convergence(sweep_report):
    t0 = time.time()
    sup = sweep_report.sup_w2
    eps = sweep_report.eps_values
    decreasing = all(a > b for a, b in zip(sup, sup[1:]))  # eps list is descending
    ok = decreasing and sweep_report.kappa_measured >= 0.8 and sweep_report.r_squared >= 0.98
    _report(9, "nonrelativistic convergence rate", ok,
            f"sup W2 per eps {dict(zip(eps, ['%.3e' % s for s in sup]))}, "
            f"kappa {sweep_report.kappa_measured:.3f}, R^2 {sweep_report.r_squared:.5f}", t0, 900)


def test_criterion_10_osgood_stability(sweep_report, small_pair):
    t0 = time.time()
    finite = all(np.isfinite(r.osgood_c) for r in sweep_report.runs) and np.isfinite(small_pair[1].osgood_c)

    cfg = copy.deepcopy(small_pair[0])
    cfg.t_final = 0.05
    cs = []
    for dt in (1e-3, 5e-4):
        cfg2 = copy.deepcopy(cfg)
        cfg2.dt = dt
        cfg2.snapshot_every = round(0.005 / dt)  # snapshots at the same times
        cfg2.validate()
        rep = run_pair(cfg2, cfg2.eps_list[0])
        cs.append(osgood_diagnostic(rep.snap_t, rep.q, cfg2.kappa, cfg2.eps_list[0], cfg2.t_final))
    rel = abs(cs[0] - cs[1]) / max(cs)
    ok = finite and rel <= 0.2
    _report(10, "Osgood diagnostic stability", ok,
            f"dt-refinement constants {cs[0]:.3e} vs {cs[1]:.3e} (rel change {rel:.1%}), "
            f"all run constants finite: {finite}", t0, 120)


def test_zz_summary():
    print("\n===== acceptance summary =====")
    for line in _RESULTS:
        print(line)
    print(f"{sum('PASS' in l for l in _RESULTS)}/{len(_RESULTS)} criteria passed", flush=True)
    charge = dict.fromkeys(_SECONDS, 0.0)
    for name, seconds in _FIXTURE_SECONDS.items():
        for num in _FIXTURE_CRITERIA[name]:
            charge[num] = charge.get(num, 0.0) + seconds / len(_FIXTURE_CRITERIA[name])
    for num in sorted(charge):
        own = _SECONDS.get(num, 0.0)
        print(f"[ACCEPTANCE] criterion {num}: {own:.1f}s own + {charge[num]:.1f}s shared runs = {own + charge[num]:.1f}s")
    print(f"[ACCEPTANCE] total: {sum(_SECONDS.values()) + sum(_FIXTURE_SECONDS.values()):.1f}s", flush=True)
