"""The measured process: one fresh interpreter per benchmark run.

    python3 worker.py PLAN RESULT [--seconds S] [--trace] [--setup-only]

It imports ultraspec, builds the plan's fields and prints ``ready`` (the end
of set-up).  With ``--setup-only`` it exits there.  Otherwise it runs rounds
of the plan's operations as one closed-loop client, each operation issued
after the previous one returned, until ``S`` seconds have passed at the end
of a round.  After each
operation, outside its timed span, it checks the files the operation wrote.
With ``--trace`` the rounds alternate untraced and traced, so one process
reports both its layer metrics and its tracing overhead.  The result, with
the process's peak RSS, is written as JSON to RESULT, and traced spans to
RESULT with the suffix ``.spans.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def make_fields(ultraspec, specs):
    for spec in specs:
        if spec["family"] == "laurent":
            field_spec = ultraspec.LaurentField(p=spec["p"], f=spec.get("f", 1))
        else:
            field_spec = ultraspec.EisensteinExtension(p=spec["p"], e=spec.get("e", 1))
        ultraspec.make_field(field_spec)


def run_pipeline(ultraspec, op) -> int:
    """Library use: config -> grid -> model -> spectrum -> O(N) tables."""
    output = ultraspec.output
    config = ultraspec.load_config(op["config"])
    grid = ultraspec.build_grid(config.field, config.require_level(), cap=config.grid_cap)
    model = ultraspec.assemble_hamiltonian(
        grid, config.alpha, config.kinetic_coeff, config.potential, config.convention
    )
    tols = config.tolerances
    report = ultraspec.eigensolve(
        model,
        tol=tols.residual_tol,
        cluster_tol=tols.cluster_tol,
        radial_tol=tols.radial_tol,
        shell_tol=tols.shell_tol,
    )
    out, fmt = Path(op["out"]), op["fmt"]
    output.write_table(out / f"grid.{fmt}", output.GRID_HEADER, output.grid_rows(grid), fmt)
    output.write_table(
        out / f"eigenvalues.{fmt}", output.SPECTRUM_HEADER, output.spectrum_rows(report), fmt
    )
    output.write_table(
        out / f"ground_state.{fmt}",
        output.EIGENVECTOR_HEADER,
        output.eigenvector_rows(grid, report.eigenvectors[:, 0]),
        fmt,
    )
    return 0


def call(ultraspec, op):
    """Run one operation; returns (exit code or None, error text or None)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if op["kind"] == "cli":
                return ultraspec.cli.main(op["argv"]), None
            return run_pipeline(ultraspec, op), None
    except SystemExit as exc:  # argparse usage errors
        return exc.code, None
    except Exception as exc:  # a raising command is a failed operation, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def check(checks, op, rc, error, oracles, reference) -> list:
    if error is not None:
        return [f"raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    problems = checks.content_problems(op, oracles)
    digests = checks.file_digests(Path(op["out"]))
    return problems + checks.digest_problems(op["key"], digests, reference)


def run_rounds(ultraspec, checks, plan, oracles, reference, seconds, tracer=None):
    """Closed-loop rounds until ``seconds`` pass; with a tracer, alternate traced rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        latencies, failures = [], []
        try:
            for i, op in enumerate(plan["ops"]):
                if traced:
                    tracer.current_op = i
                t0 = time.perf_counter()
                rc, error = call(ultraspec, op)
                latencies.append(time.perf_counter() - t0)
                if traced:
                    tracer.current_op = -1
                problems = check(checks, op, rc, error, oracles, reference)
                failures.append([f"op {i} ({op['key']}): {p}" for p in problems])
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "latencies": latencies, "problems": failures})
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(rounds) >= 2):
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    import ultraspec
    import ultraspec.cli
    import ultraspec.output

    make_fields(ultraspec, plan["fields"])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import checks
    import numpy as np

    result_path = Path(args.result)
    oracles = {
        k: np.asarray(v) for k, v in json.loads(Path(plan["oracles"]).read_text()).items()
    }
    reference_path = Path(plan["digests"])
    reference = json.loads(reference_path.read_text()) if reference_path.exists() else {}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds = run_rounds(ultraspec, checks, plan, oracles, reference, args.seconds, tracer)
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ultraspec_file": ultraspec.__file__,
    }
    if tracer is not None:
        spans = tracer.spans()
        np.savez(result_path.with_suffix(".spans.npz"), **spans)
        result["layers"] = tracing.layer_metrics(
            spans,
            tracer.counters,
            [sum(r["latencies"]) for r in rounds if r["traced"]],
            [sum(r["latencies"]) for r in rounds if not r["traced"]],
        )
    if not any(p for r in rounds for p in r["problems"]):
        reference_path.parent.mkdir(parents=True, exist_ok=True)
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
