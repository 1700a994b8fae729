"""Smoke test of the benchmark itself, at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload with ``--seconds 1`` (the least work a pass can do),
untraced and traced, and checks the result line against BENCHMARK.json.
Also checks that a tampered reference value is reported as a failed
operation rather than a crash, and that the benchmark refuses to run without
the package sources.  Takes about two minutes on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# share of traced wall time charged to layer spans below the workload's entry
# call; ck_iterate computes its right-hand side inline, about 15% of ck2d
MIN_COVERAGE = {"sweep2d": 0.95, "loeper": 0.95, "ck2d": 0.8}


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:
        m = res["metrics"]
        assert MIN_COVERAGE[workload] <= m["trace.coverage"]["value"] < 1.0
        # self times and the unattributed rest partition the traced wall time
        parts = sum(v["value"] for k, v in m.items() if v["unit"] == "s" and k != "trace.wall_s")
        assert parts == pytest.approx(m["trace.wall_s"]["value"], rel=1e-9)


def _tamper_ck2d(refs):
    refs["ck2d"]["diffs_rho"][0] *= 1.0 + 1e-6


def _tamper_sweep2d(refs):
    refs["sweep2d"]["steps"]["0.1"][1][1] += 1e-6  # energy_vm after one step


def _tamper_loeper(refs):
    for case in refs["loeper"]["cases"].values():
        case["rhs"] *= 1.0 + 1e-6


@pytest.mark.parametrize(
    "workload, tamper", [("ck2d", _tamper_ck2d), ("sweep2d", _tamper_sweep2d), ("loeper", _tamper_loeper)]
)
def test_tampered_reference_is_a_failure_not_a_crash(tmp_path, workload, tamper):
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    tamper(refs)
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs), encoding="utf-8")
    res = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                              "--refs", str(bad)))
    assert res["correct"] is False
    assert 1 <= res["failed"] <= res["attempted"]
    assert res["metrics"]["success_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "ck2d", "--seed", "3", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_coupling_bound_holds_for_every_subsample():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import numpy as np
    from workloads import coupling_bound

    rng = np.random.default_rng(0)
    gap_sq = rng.lognormal(sigma=1.0, size=4096)
    weights = np.full(gap_sq.size, 1.0 / gap_sq.size)
    bound = coupling_bound(gap_sq, weights, 256)
    assert np.dot(weights, gap_sq) < bound <= gap_sq.max()
    means = [gap_sq[rng.choice(gap_sq.size, 256, replace=False)].mean() for _ in range(2000)]
    assert max(means) <= bound
    # with unequal weights only the maximum bounds a uniform subsample
    assert coupling_bound(gap_sq, weights * rng.uniform(0.5, 1.5, gap_sq.size), 256) == gap_sq.max()
