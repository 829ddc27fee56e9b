"""Self-tests of the benchmark: plans, checks, error counting and tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
The last test runs one untraced and one traced round of ``solve_large``
(about 45 s).
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import ultraspec
import ultraspec.cli
import ultraspec.output
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _config_bytes(plan):
    return {Path(op["config"]).name: Path(op["config"]).read_bytes() for op in plan["ops"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(tmp_path, workload):
    a = workloads.make_plan(workload, 7, tmp_path / "a", ROOT)
    b = workloads.make_plan(workload, 7, tmp_path / "b", ROOT)
    c = workloads.make_plan(workload, 8, tmp_path / "c", ROOT)
    assert _config_bytes(a) == _config_bytes(b)
    assert [op["key"] for op in a["ops"]] == [op["key"] for op in b["ops"]]
    assert _config_bytes(a) != _config_bytes(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_configs_load(tmp_path, workload, seed):
    plan = workloads.make_plan(workload, seed, tmp_path, ROOT)
    for op in plan["ops"]:
        config = ultraspec.load_config(op["config"])
        assert config.field.q ** (2 * max(op["levels"])) == op["N"]


def test_verify_converge_mix(tmp_path):
    ops = workloads.make_plan("verify_converge", 3, tmp_path, ROOT)["ops"]
    verify = sum(op["command"] == "verify" for op in ops)
    assert len(ops) >= 110
    assert 0.6 <= verify / len(ops) <= 0.7
    assert sum(op["command"] == "converge" and op["N"] == 729 for op in ops) >= len(ops) // 10 + 5
    assert max(op["N"] for op in ops) == 729
    assert len({(Path(op["config"]).stem.split("-")[0], max(op["levels"])) for op in ops}) == 15


def _small_plan(tmp_path):
    """One spectrum command at n = 2 (N = 81) and one command that must fail."""
    data = json.loads((ROOT / "configs" / "q3sqrt3_ho.cfg").read_text())
    config = tmp_path / "ho.cfg"
    config.write_text(json.dumps(data))
    good = {
        "key": "spectrum:ho:csv",
        "kind": "cli",
        "command": "spectrum",
        "argv": ["spectrum", "--config", str(config), "--out", str(tmp_path / "good"), "--format", "csv"],
        "config": str(config),
        "out": str(tmp_path / "good"),
        "fmt": "csv",
        "levels": [2],
        "N": 81,
    }
    missing = str(tmp_path / "missing.cfg")
    bad = {**good, "key": "spectrum:missing:csv", "config": missing, "out": str(tmp_path / "bad")}
    bad["argv"] = ["spectrum", "--config", missing, "--out", bad["out"]]
    return {"ops": [good, bad]}


def test_failing_command_and_corrupt_output_are_counted(tmp_path):
    plan = _small_plan(tmp_path)
    good = plan["ops"][0]
    oracles = {checks.oracle_key(good["config"], 2): checks.oracle_eigenvalues(good["config"], 2)}
    reference = {}
    rounds = worker.run_rounds(ultraspec, checks, plan, oracles, reference, seconds=0)
    assert rounds[0]["problems"][0] == []
    assert "exit code 1" in rounds[0]["problems"][1][0]
    assert run.tally(rounds) == (2, 1)

    eigenvalues = Path(good["out"]) / "eigenvalues.csv"
    lines = eigenvalues.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-8))
    lines[5] = ",".join(fields)
    eigenvalues.write_text("\n".join(lines) + "\n")
    problems = worker.check(checks, good, 0, None, oracles, reference)
    assert any("eigenvalue error" in p for p in problems)
    assert any("output differs" in p for p in problems)
    assert run.tally([{"problems": [problems, []]}]) == (2, 1)


def test_failed_verify_check_is_a_problem(tmp_path):
    op = {"command": "verify", "out": str(tmp_path), "fmt": "csv"}
    (tmp_path / "verify_report.csv").write_text(
        "check,status,defect,threshold\nfourier_unitary,FAIL,1.0,1e-12\n"
    )
    assert checks.content_problems(op, {}) == ["verify checks failed: ['fourier_unitary']"]


def test_self_times_of_synthetic_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    spans = {
        "names": np.array(["cli.main", "finite.build_grid", "spectra.eigensolve", "numpy.linalg.eigh"]),
        "name_id": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 0, 2]),
        "op": np.zeros(4, dtype=int),
        "start_ns": np.array([0, 1, 5, 6]),
        "end_ns": np.array([10, 4, 9, 7]),
    }
    assert tracing.self_times(spans).tolist() == [3, 3, 3, 1]
    assert tracing.span_layers(spans).tolist() == ["cli", "finite", "spectra", "spectra"]


def _traced_round(plan, oracles):
    tracer = tracing.Tracer()
    rounds = worker.run_rounds(ultraspec, checks, plan, oracles, {}, seconds=0, tracer=tracer)
    spans = tracer.spans()
    walls = [sum(r["latencies"]) for r in rounds]
    metrics = tracing.layer_metrics(spans, tracer.counters, walls[1::2], walls[0::2])
    return rounds, spans, metrics


def test_traced_cli_round(tmp_path):
    plan = _small_plan(tmp_path)
    plan["ops"] = plan["ops"][:1]
    good = plan["ops"][0]
    oracles = {checks.oracle_key(good["config"], 2): checks.oracle_eigenvalues(good["config"], 2)}
    main_before = ultraspec.cli.main
    rounds, spans, metrics = _traced_round(plan, oracles)
    assert ultraspec.cli.main is main_before  # wrappers are removed again
    assert run.tally(rounds) == (2, 0)
    assert (tracing.self_times(spans) >= 0).all()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    names = set(spans["names"][spans["name_id"]])
    # calls made through names imported into cli, finite and output are seen
    assert {"config.load_config", "finite.build_grid", "fields.format_element"} <= names
    assert metrics["output.rows_written"] == 81 + 81 + 81 + 81 * 81
    assert metrics["output.bytes_written"] == sum(
        p.stat().st_size for p in Path(good["out"]).iterdir()
    )
    assert metrics["trace.span_coverage"] > 0.95


def test_solve_large_spans_cover_wall(tmp_path):
    plan = workloads.make_plan("solve_large", 0, tmp_path, ROOT)
    oracles = checks.compute_oracles(plan)
    rounds, spans, metrics = _traced_round(plan, oracles)
    assert run.tally(rounds) == (4, 0)
    assert (tracing.self_times(spans) >= 0).all()
    wall = metrics["trace.wall_s"]
    assert metrics["trace.span_coverage"] > 0.95
    assert metrics["finite.self_s"] + metrics["spectra.self_s"] > 0.8 * wall
    assert metrics["output.write_spectrum_outputs_s"] == 0
