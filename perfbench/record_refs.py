"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [--seeds 0-23] [--out perfbench/refs.json]
                                     [--workloads sweep2d,loeper,ck2d]

Run on the commit whose outputs are the reference.  It records, at the
pass size that ``run_seconds`` in BENCHMARK.json gives:

* the per-step diagnostics of every pair run, which do not depend on the
  seed (it checks that they agree across the recorded seeds);
* per workload seed, the snapshot series (Q, W2, its standard error), the
  per-eps sup W2 and the fitted kappa;
* per loeper case of the workload seeds, the two sides of the inequality;
* the ck2d iterate differences, which have no seed.

Only the workloads named are recorded; the other entries of an existing
``--out`` file are kept.  Recording all of them takes about half an hour on
2 cores, most of it the loeper cases.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import HERE, ROOT, SRC  # importing run also pins the BLAS thread count

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from vmvp import harness, multifluid, transport  # noqa: E402
from workloads import Ck2d, Loeper, Sweep2d, eps_key, loeper_case_seeds, loeper_densities  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_sweep2d(seeds, seconds) -> dict:
    steps, by_seed = None, {}
    for seed in seeds:
        cfg = Sweep2d(seed, seconds, {}, ROOT / ".bench_out").cfg
        rep = harness.run_sweep(cfg)
        rows = {eps_key(e): r.step_rows.tolist() for e, r in zip(rep.eps_values, rep.runs)}
        if steps is None:
            steps = rows
        elif rows != steps:
            raise SystemExit(f"seed {seed}: per-step diagnostics depend on the seed")
        by_seed[str(seed)] = {
            "n_steps": cfg.n_steps,
            "kappa": rep.kappa_measured,
            "sup_w2": rep.sup_w2,
            "pairs": {
                eps_key(e): {
                    "steps": np.round(r.snap_t / cfg.dt).astype(int).tolist(),
                    "q": r.q.tolist(),
                    "w2": r.w2.tolist(),
                    "se": r.w2_se.tolist(),
                }
                for e, r in zip(rep.eps_values, rep.runs)
            },
        }
        print(f"sweep2d seed {seed}: kappa {rep.kappa_measured!r}", flush=True)
    return {"steps": steps, "seeds": by_seed}


def record_loeper(seeds, seconds) -> dict:
    cases = {}
    for seed in seeds:
        for case_seed in loeper_case_seeds(seed, seconds):
            rho1, rho2 = loeper_densities(case_seed)
            lhs, rhs, ok = transport.loeper_check(rho1, rho2, Loeper.N_SAMPLES, case_seed, slack=Loeper.SLACK)
            if not ok:
                raise SystemExit(f"loeper case {case_seed} fails the inequality")
            cases[str(case_seed)] = {"lhs": lhs, "rhs": rhs}
        print(f"loeper seed {seed}: {len(cases)} cases", flush=True)
    return {"cases": cases}


def record_ck2d() -> dict:
    ck = Ck2d(0, 1, {}, ROOT / ".bench_out")
    rep = multifluid.ck_iterate(ck.ens, ck.em, ck.params, n_max=ck.cfg.ck_n_iters, n_time=ck.cfg.ck_n_time)
    return {"diffs_rho": rep.diffs_rho, "diffs_xi": rep.diffs_xi}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-23"))
    ap.add_argument("--out", type=Path, default=HERE / "refs.json")
    ap.add_argument("--workloads", default="sweep2d,loeper,ck2d", help="comma-separated workloads to record")
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    refs = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    for name in args.workloads.split(","):
        if name == "sweep2d":
            refs[name] = record_sweep2d(args.seeds, seconds)
        elif name == "loeper":
            refs[name] = record_loeper(args.seeds, seconds)
        elif name == "ck2d":
            refs[name] = record_ck2d()
        else:
            raise SystemExit(f"unknown workload {name!r}")
    args.out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
