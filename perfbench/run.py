"""ultraspec benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.  The
run writes its configs, oracle, outputs and results under
``.perfbench_work/NAME``.  The last line of standard output is the result
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it is
the environment record and run details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
SETUP_SAMPLES = 9  # set-up is ~0.1-0.2 s and noisy; report the median of this many
RUN_LIMIT_S = 170.0  # every process this run starts is killed past this point
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env(threads: int) -> dict:
    """The program sees ULTRASPEC_THREADS only, so its own BLAS hook applies."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["ULTRASPEC_THREADS"] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ultraspec").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def spawn(args, env, deadline):
    """Run a worker to completion; returns (seconds until it printed ready, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready":
        code = code or 1
    return ready, code


def tally(rounds):
    """(attempted, failed): an operation fails when any of its checks does."""
    return sum(len(r["problems"]) for r in rounds), sum(1 for r in rounds for p in r["problems"] if p)


def end_to_end(result: dict, setup_samples) -> dict:
    import numpy as np

    rounds = [r for r in result["rounds"] if not r["traced"]]
    latencies = np.array([t for r in rounds for t in r["latencies"]])
    return {
        "wall_s": statistics.median(sum(r["latencies"]) for r in rounds),
        "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ultraspec benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # on SIGTERM, unwind so that spawn() kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    os.chdir(ROOT)
    if not (ROOT / "src" / "ultraspec" / "__init__.py").is_file():
        print(f"error: no ultraspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = blas_threads()
    env = child_env(threads)
    os.environ.update(ULTRASPEC_THREADS=str(threads))
    for var in BLAS_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    # ultraspec sets the BLAS thread count, so it must load before numpy does
    import ultraspec  # noqa: F401
    import checks

    work = WORK / args.workload
    shutil.rmtree(work / "out", ignore_errors=True)
    digest = source_digest()
    plan = workloads.make_plan(args.workload, args.seed, work, ROOT)
    plan["oracles"] = str(work / "oracles.json")
    plan["digests"] = str(work / "digests" / f"{digest[:16]}-seed{args.seed}-t{threads}.json")
    oracles = checks.compute_oracles(plan)
    Path(plan["oracles"]).write_text(json.dumps({k: v.tolist() for k, v in oracles.items()}))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = work / "results" / f"{tag}.worker.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(plan_path), str(result_path)]
    # set-up probes run before and after the measured worker, so their median
    # spans the run rather than one moment of a machine whose speed drifts
    probes = SETUP_SAMPLES // 2
    setup_samples = []
    for stage in ("before", "worker", "after"):
        flags = ["--setup-only"]
        if stage == "worker":
            flags = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        for _ in range(1 if stage == "worker" else probes):
            ready, code = spawn(worker + flags, env, deadline)
            if code != 0:
                print(f"error: {stage} process exited with {code}", file=sys.stderr)
                return 1
            setup_samples.append(ready)
    shutil.rmtree(work / "out", ignore_errors=True)
    if not result_path.exists():
        print("error: the worker wrote no result", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    if Path(result["ultraspec_file"]).resolve().parent != ROOT / "src" / "ultraspec":
        print(f"error: worker imported {result['ultraspec_file']}", file=sys.stderr)
        return 1

    problems = [p for r in result["rounds"] for op in r["problems"] for p in op]
    attempted, failed = tally(result["rounds"])
    if args.trace:
        import tracing

        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
    else:
        values = end_to_end(result, setup_samples)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    import numpy

    record = {
        "env": {
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "ULTRASPEC_THREADS": threads,
            "numpy": numpy.__version__,
            "blas": blas_version(),
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "source_digest": digest,
        },
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "ops": [{"key": op["key"], "N": op["N"]} for op in plan["ops"]],
        "rounds": [{"traced": r["traced"], "wall_s": sum(r["latencies"])} for r in result["rounds"]],
        "op_samples": sum(len(r["latencies"]) for r in result["rounds"] if not r["traced"]),
        "setup_samples_s": setup_samples,
        "error_rate": failed / attempted,
        "problems": problems[:20],
    }
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "results" / f"{tag}.json").write_text(json.dumps({**record, **final}, indent=1))
    print(json.dumps(record))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
