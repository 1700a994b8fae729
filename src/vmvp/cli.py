"""Command-line entry point.

Subcommands: simulate (one vp or vm/vp pair run), sweep (eps sweep with rate fit),
ck (analytic fixed-point iteration), wasserstein (distance between two saved
clouds), verify (invariant battery), report (rebuild Q series / summaries
from saved checkpoints).  Exit codes: 0 success, 2 validation error, 3
numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import MODES, build_em_state, build_ensemble, load_config, parse_eps_list, resolve_config_path
from .errors import NumericalAbort, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vmvp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configuration (vp, or a vm/vp pair)")
    sim.add_argument("--config", required=True, help="config path or bundled/<name>")
    sim.add_argument("--eps", type=float, default=None, help="override: single eps value")
    sim.add_argument("--mode", choices=MODES, default=None)
    sim.add_argument("--out", default=None, help="output directory override")
    sim.add_argument("--no-particles", action="store_true", help="run without particles: same as n_particles = 0")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="paired runs over an eps list, with rate fit")
    sw.add_argument("--config", required=True)
    sw.add_argument("--eps", type=parse_eps_list, default=None, help="override: comma-separated eps list")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=_cmd_sweep)

    ck = sub.add_parser("ck", help="successive-approximation run with contraction report")
    ck.add_argument("--config", required=True)
    ck.add_argument("--out", default=None)
    ck.set_defaults(func=_cmd_ck)

    ws = sub.add_parser("wasserstein", help="exact W2 between two saved clouds of one size")
    ws.add_argument("cloud_a")
    ws.add_argument("cloud_b")
    ws.add_argument("--side", choices=("vm", "vp", "initial"), default="vm")
    ws.add_argument("--position-only", action="store_true")
    ws.set_defaults(func=_cmd_wasserstein)

    ve = sub.add_parser("verify", help="run the invariant battery")
    ve.add_argument("--config", required=True)
    ve.add_argument("--out", default=None, help="optional file for the pass/fail table")
    ve.set_defaults(func=_cmd_verify)

    rp = sub.add_parser("report", help="rebuild summaries from saved outputs")
    rp.add_argument("--from-checkpoints", default=None, help="directory of cloud checkpoints: print the Q series")
    rp.add_argument("--run", default=None, help="run directory: re-print report.json")
    rp.set_defaults(func=_cmd_report)
    return p


def _load_cfg(path, overrides=None):
    cfg = load_config(resolve_config_path(path))
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        cfg.validate()
    return cfg


def _out_path(path, is_file: bool = False) -> Path:
    """The output path, its directory (`path`, or its parent for a file) made before any step runs.

    A path that cannot be written is a validation error, so it exits 2 before the work, not 1 after it.
    """
    path = Path(path)
    try:
        (path.parent if is_file else path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write output path {path}: {exc.strerror}: {exc.filename}") from None
    if is_file and path.is_dir():
        raise ValidationError(f"cannot write output path {path}: it is a directory")
    return path


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
        return EXIT_VALIDATION if code != 0 else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _cmd_simulate(args) -> int:
    from .harness import _step_abort, run_pair
    from .multifluid import save_ensemble, vp_step_full

    eps_list = None if args.eps is None else [args.eps]
    cfg = _load_cfg(args.config, {"mode": args.mode, "output_dir": args.out, "eps_list": eps_list,
                                  "n_particles": 0 if args.no_particles else None})
    eps = cfg.eps_list[0]
    out = _out_path(cfg.output_dir)
    if cfg.mode == "vp":
        ens = build_ensemble(cfg, 0.0)
        for step in range(cfg.n_steps):
            try:
                ens = vp_step_full(ens, cfg.dt).ensemble
            except NumericalAbort as exc:
                raise _step_abort(exc, step, step * cfg.dt, ens, out) from exc
        save_ensemble(ens, out / "vp_final.ens")
        print(f"vp run complete: {cfg.n_steps} steps, state in {out}")
        return EXIT_OK
    report = run_pair(cfg, eps, out_dir=out)
    if report.aborted:
        raise NumericalAbort(report.abort_message, report.truncation_time)
    print(f"pair run complete: eps={eps} sup_t W2={report.sup_w2:.6g} sup_t Q={report.sup_q:.6g}")
    print(f"outputs in {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .harness import MIN_FIT_PAIRS, fit_pairs, run_sweep

    cfg = _load_cfg(args.config, {"output_dir": args.out, "eps_list": args.eps})
    report = run_sweep(cfg, out_dir=_out_path(cfg.output_dir))
    print(f"sweep over eps={report.eps_values}")
    if report.kappa_measured is None:
        done = len(fit_pairs(report.eps_values, report.runs))
        print(f"kappa_measured=null: {done} of {len(report.runs)} pairs reached t_final with a positive sup W2, "
              f"a fit needs {MIN_FIT_PAIRS}")
    else:
        print(f"kappa_measured={report.kappa_measured:.4f} (R^2={report.r_squared:.4f}), monotone={report.monotone}")
    if report.partial:
        print("warning: at least one member run aborted; report flagged partial", file=sys.stderr)
    return EXIT_OK


def _cmd_ck(args) -> int:
    from .multifluid import ck_iterate
    from .spectral import AnalyticNormParams

    cfg = _load_cfg(args.config, {"output_dir": args.out})
    eps = cfg.eps_list[0]
    ens = build_ensemble(cfg, eps)
    em = build_em_state(cfg, eps)
    p = AnalyticNormParams(delta0=cfg.delta0, delta=cfg.delta1, eta=cfg.eta, beta=cfg.loss_beta)
    out = _out_path(cfg.output_dir)
    rep = ck_iterate(ens, em, p, n_max=cfg.ck_n_iters, n_time=cfg.ck_n_time)
    payload = {
        "n_iters": rep.n_iters,
        "horizon": rep.horizon,
        "diffs_rho": rep.diffs_rho,
        "diffs_xi": rep.diffs_xi,
        "ratios": rep.ratios,
        "diverged": rep.diverged,
        "c0_measured": rep.c0_measured,
        "c1_declared": rep.c1_declared,
        "c2_declared": rep.c2_declared,
    }
    (out / "ck.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"iterations: {rep.n_iters}, horizon T = {rep.horizon:.4g}, diverged: {rep.diverged}")
    print("ratios:", ", ".join(f"{r:.3f}" for r in rep.ratios))
    return EXIT_OK if not rep.diverged else EXIT_NUMERICAL


def _cmd_wasserstein(args) -> int:
    from .lagrangian import load_cloud
    from .transport import EmpiricalMeasure, w2_exact

    a = load_cloud(args.cloud_a)
    b = load_cloud(args.cloud_b)
    attr = {"vm": ("x_vm", "xi_vm"), "vp": ("x_vp", "xi_vp"), "initial": ("x0", "xi0")}[args.side]
    xa, xia = getattr(a, attr[0]), getattr(a, attr[1])
    xb, xib = getattr(b, attr[0]), getattr(b, attr[1])
    if args.position_only:
        xia = xib = None
    mu = EmpiricalMeasure.uniform(xa, xia)
    nu = EmpiricalMeasure.uniform(xb, xib)
    val = w2_exact(mu, nu)
    print(f"W2 = {val!r}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .harness import emit_verify, verify_suite

    cfg = _load_cfg(args.config)
    out = None if args.out is None else _out_path(args.out, is_file=True)
    results = verify_suite(cfg)
    text = emit_verify(results, out)
    print(text, end="")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def _cmd_report(args) -> int:
    if args.from_checkpoints:
        from .lagrangian import replay_coupling

        paths = sorted(Path(args.from_checkpoints).glob("*.cloud"))
        if not paths:
            raise ValidationError(f"no cloud checkpoints under {args.from_checkpoints}")
        series = replay_coupling(paths)
        print("t,Q")
        for t, q in series:
            print(f"{t!r},{q!r}")
        return EXIT_OK
    if args.run:
        path = Path(args.run) / "report.json"
        if not path.is_file():
            raise ValidationError(f"no report.json under {args.run}")
        print(path.read_text(encoding="utf-8"))
        return EXIT_OK
    raise ValidationError("report needs --from-checkpoints or --run")


if __name__ == "__main__":
    sys.exit(main())
