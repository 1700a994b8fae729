"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload sweep2d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the vmvp package is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the result carries the end-to-end metrics.  With ``--trace 1``
the pass runs once untraced and once traced, and the result carries the
per-layer metrics.  The last line of standard output is the result object;
the lines before it are a run manifest and the metrics in readable form.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread, whatever the host's core count, so that the work a
# run does and its spread do not depend on the host's default thread pool
# (results are bit-identical either way).  Set before numpy is imported, so
# that it takes effect.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VMVP_WORKERS": "1",
}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep2d", "loeper", "ck2d")
SETUP_SAMPLES = 5  # set-up is timed this many times (this process + fresh ones); median reported

RATE_NAMES = {"sweep2d": "steps_per_s", "loeper": "cases_per_s", "ck2d": "iters_per_s"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="sizes the fixed work of one pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", type=Path, default=HERE / "refs.json", help="recorded reference outputs")
    ap.add_argument("--setup-only", action="store_true", help="time the set-up, print it and exit")
    return ap.parse_args(argv)


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, read without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "vmvp").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def setup_samples(args, own: float) -> list[float]:
    """Set-up times: this process's own, plus fresh processes that only set up."""
    samples = [own]
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--refs", str(args.refs), "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def metric_units(kind: str) -> dict:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if not (SRC / "vmvp" / "__init__.py").is_file():
        print(f"no vmvp sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vmvp

    if Path(vmvp.__file__).resolve().parent != (SRC / "vmvp").resolve():
        print(f"imported vmvp from {vmvp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    refs = json.loads(args.refs.read_text(encoding="utf-8"))
    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, args.seconds, refs, scratch)
        setup_own = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        print("manifest " + json.dumps(manifest(args), sort_keys=True), flush=True)
        setup = [setup_own] if args.trace else setup_samples(args, setup_own)

        t0 = time.perf_counter()
        outcome = wl.run()
        wall = time.perf_counter() - t0
        if args.trace:
            import spans

            tracer = spans.Tracer()
            with spans.patched(tracer):
                t0 = time.perf_counter()
                traced = wl.run()
                traced_wall = time.perf_counter() - t0
            metrics = spans.summarize(tracer, traced_wall, wall, units)
            outcome.attempted += traced.attempted
            outcome.failed += traced.failed
            outcome.notes += traced.notes
        else:
            measured = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "ops_per_s": outcome.work / wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "success_ratio": 1.0 - outcome.failed / max(outcome.attempted, 1),
            }
            metrics = {name: measured[name] for name in units}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for note in outcome.notes:
        print("FAILED " + note.strip().replace("\n", "\n    "))
    for note in outcome.info:
        print("note: " + note)
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"work: {outcome.work} {wl.unit} in {wall:.4f} s untraced; "
          f"{RATE_NAMES[args.workload]} = {outcome.work / wall:.6g} 1/s")
    print(f"fail_ratio = {outcome.failed}/{outcome.attempted} = {outcome.failed / max(outcome.attempted, 1):.6g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
