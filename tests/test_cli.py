import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultraspec import (
    GridTooLarge,
    MonomialPotential,
    ParseError,
    ResidualTooLarge,
    SpectrumReport,
    ValidationError,
    ZeroCellConvention,
    load_config,
    run_verify,
)
from ultraspec.cli import main
import ultraspec
import ultraspec.cli
import ultraspec.fields
import ultraspec.finite
import ultraspec.verify
from oracles import classification

try:
    from numpy._core._exceptions import _ArrayMemoryError
except ImportError:  # numpy < 2
    from numpy.core._exceptions import _ArrayMemoryError

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "q3sqrt3_ho.cfg"
LAURENT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "f3_laurent.cfg"
SRC = Path(__file__).resolve().parents[1] / "src"

CANONICAL = {
    "field": {"family": "eisenstein", "p": 3, "e": 2},
    "n": 2,
    "alpha": 2.0,
    "kinetic_coeff": 0.5,
    "potential": {"kind": "monomial", "c": 0.5, "s": 2.0},
}


def write_config(tmp_path, data, name="run.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli(cwd, *args, **kwargs):
    """The command line in a fresh interpreter, so stderr holds every warning a user sees.

    ``kwargs`` go to ``subprocess.run``, such as a timeout.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-m", "ultraspec.cli", *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, **kwargs)


# ---------------------------------------------------------------------------
# load_config
# ---------------------------------------------------------------------------


def test_load_shipped_canonical_config():
    config = load_config(REPO_CONFIG)
    assert config.field_spec.p == 3 and config.field_spec.e == 2
    assert config.n == 2
    assert config.alpha == 2.0 and config.kinetic_coeff == 0.5
    assert config.potential == MonomialPotential(c=0.5, s=2.0)
    assert config.convention is ZeroCellConvention.AVERAGE_OF_POWER
    assert config.tolerances.cluster_tol == 1e-6


def test_missing_potential_is_a_validation_error(tmp_path):
    data = dict(CANONICAL)
    del data["potential"]
    with pytest.raises(ValidationError) as err:
        load_config(write_config(tmp_path, data))
    assert err.value.field == "potential"


def test_grid_cap_checked_at_load(tmp_path):
    data = dict(CANONICAL, n=8)
    with pytest.raises(GridTooLarge):
        load_config(write_config(tmp_path, data))


def test_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text('{\n  "field": }\n')
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "key, patch",
    [
        ("mystery", {"mystery": 1}),
        ("field.f", {"field": {"family": "eisenstein", "p": 3, "e": 2, "f": 2}}),
        ("field.e", {"field": {"family": "laurent", "p": 3, "e": 2}}),
        ("potential.w0", {"potential": {"kind": "monomial", "c": 0.5, "s": 2.0, "w0": 0.0}}),
        ("potential.c", {"potential": {"kind": "table", "values": {"2": 1.0}, "c": 0.5}}),
        ("tolerances.cluster", {"tolerances": {"cluster": 1e-6}}),
        ("output.fromat", {"output": {"fromat": "json"}}),
    ],
    ids=["mystery", "eisenstein-f", "laurent-e", "monomial-w0", "table-c", "tol", "output"],
)
def test_unknown_key_rejected(tmp_path, monkeypatch, capsys, key, patch):
    config = write_config(tmp_path, dict(CANONICAL, **patch))
    with pytest.raises(ValidationError) as err:
        load_config(config)
    assert err.value.field == key
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: invalid config field '{key}': unknown key"]
    assert list(tmp_path.iterdir()) == [config]  # no output directory


def test_tolerances_validated(tmp_path):
    data = dict(CANONICAL, tolerances={"cluster_tol": 2.0})
    with pytest.raises(ValidationError):
        load_config(write_config(tmp_path, data))


def test_load_laurent_field_with_explicit_modulus(tmp_path):
    data = dict(
        CANONICAL,
        field={"family": "laurent", "p": 2, "f": 3, "modulus": [1, 1, 0, 1]},
    )
    config = load_config(write_config(tmp_path, data))
    assert config.field.q == 8
    assert config.field.residue.modulus == (1, 1, 0, 1)


def test_levels_accepted_in_place_of_n(tmp_path):
    data = dict(CANONICAL)
    del data["n"]
    data["levels"] = [2, 1]
    config = load_config(write_config(tmp_path, data))
    assert config.levels == (1, 2)
    assert config.require_levels() == (1, 2)
    assert config.require_level() == 2


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_summary_contains_reference_shell_rows(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {
        tuple(line.split()[:3])
        for line in lines
        if line and line.split()[0][0].isdigit()
    }
    assert ("5.0000", "2", "shell") in rows
    assert ("9.0000", "4", "shell") in rows
    assert ("45.0000", "24", "shell") in rows
    for name in ("grid.csv", "eigenvalues.csv", "ground_state.csv", "eigenvectors.csv"):
        assert (out / name).exists()


def test_spectrum_diagonal_listing_when_kinetic_off(tmp_path, capsys):
    data = dict(CANONICAL, kinetic_coeff=0.0, potential={"kind": "monomial", "c": 1.0, "s": 1.0})
    config = write_config(tmp_path, data)
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out
    assert "3.0000            18" in lines
    assert "9.0000            54" in lines


def files(out):
    """Each file's name and bytes in the directory ``out``."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_spectrum_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(out2)]) == 0
    for name in ("grid.csv", "eigenvalues.csv", "ground_state.csv", "eigenvectors.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # a rerun into the same directory, and a level 2 run over level 3's longer files
    def spectrum(config, out, fmt):
        argv = ["spectrum", "--config", str(config), "--out", str(out), "--format", fmt]
        assert main(argv) == 0
        return files(out)

    n3 = write_config(tmp_path, dict(json.loads(REPO_CONFIG.read_text()), n=3), "n3.cfg")
    for fmt in ("csv", "json"):
        fresh = spectrum(REPO_CONFIG, tmp_path / f"{fmt}_fresh", fmt)
        spectrum(REPO_CONFIG, tmp_path / f"{fmt}_reused", fmt)
        assert spectrum(REPO_CONFIG, tmp_path / f"{fmt}_reused", fmt) == fresh and len(fresh) == 4
        longer = spectrum(n3, tmp_path / f"{fmt}_shrunk", fmt)
        assert spectrum(REPO_CONFIG, tmp_path / f"{fmt}_shrunk", fmt) == fresh
        assert all(len(fresh[name]) < len(longer[name]) for name in longer)


def test_spectrum_json_format(tmp_path):
    out = tmp_path / "json_out"
    code = main(
        ["spectrum", "--config", str(REPO_CONFIG), "--out", str(out), "--format", "json"]
    )
    assert code == 0
    records = json.loads((out / "eigenvalues.json").read_text())
    assert records[0]["rank"] == 0
    assert float(records[0]["eigenvalue"]) == pytest.approx(0.6684, abs=5e-4)


def test_spectrum_ground_state_file_layout(tmp_path):
    out = tmp_path / "gs"
    main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(out)])
    header, first = (out / "ground_state.csv").read_text().splitlines()[:2]
    assert header == "point_index,digits,shell,re,im"
    cols = first.split(",")
    assert cols[0] == "0" and cols[2] == "-inf"
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "index,digits,shell,abs_value,mass"
    zero_row = grid_lines[1].split(",")
    assert zero_row[1] == "" and zero_row[3] == "0.0"  # zero element, |0| = 0
    spectrum_header = (out / "eigenvalues.csv").read_text().splitlines()[0]
    assert spectrum_header == "rank,eigenvalue,cluster_id,multiplicity,classification,shell_profile"


def test_convention_override_flag(tmp_path, capsys):
    out = tmp_path / "pow"
    code = main(
        [
            "spectrum",
            "--config",
            str(REPO_CONFIG),
            "--out",
            str(out),
            "--convention",
            "power-of-avg",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "5.0000             2  shell" in text


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_passes_on_canonical_config(tmp_path, capsys):
    code = main(["verify", "--config", str(REPO_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
    assert (tmp_path / "verify_report.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_rerun_into_the_same_out_is_byte_identical(tmp_path, fmt):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for out in (fresh, reused, reused):
        argv = ["verify", "--config", str(REPO_CONFIG), "--out", str(out), "--format", fmt]
        assert main(argv) == 0
    assert files(reused) == files(fresh) and list(files(fresh)) == [f"verify_report.{fmt}"]


@pytest.mark.parametrize(
    "command, name",
    [("spectrum", "grid.csv"), ("spectrum", "eigenvectors.csv"), ("verify", "verify_report.csv")],
)
def test_output_file_path_that_is_a_directory_exits_one(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    (out / name / "kept").write_text("kept\n")
    assert main([command, "--config", str(REPO_CONFIG), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert (out / name / "kept").read_text() == "kept\n"


def test_verify_passes_in_positive_characteristic(tmp_path, capsys):
    code = main(["verify", "--config", str(LAURENT_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_passes_with_nontrivial_residue_field(tmp_path):
    data = dict(CANONICAL, field={"family": "laurent", "p": 2, "f": 2}, n=2)
    outcome = run_verify(load_config(write_config(tmp_path, data)))
    assert outcome.passed, [c.name for c in outcome.checks if not c.passed]


def test_corrupted_kernel_trips_unitarity(monkeypatch):
    config = load_config(REPO_CONFIG)
    exact = ultraspec.verify._PhaseTable

    class FlipOneNumerator(exact):
        def __init__(self, grid):
            super().__init__(grid)
            self.steps[1][0, 1, 2] += 1

    monkeypatch.setattr(ultraspec.verify, "_PhaseTable", FlipOneNumerator)
    outcome = run_verify(config)
    assert not outcome.passed
    failed = {c.name for c in outcome.checks if not c.passed}
    assert "fourier_unitary" in failed


@pytest.mark.parametrize("moved", [(ultraspec.ZERO_SHELL, -1.0), (0.0, 1.0)], ids=repr)
def test_shifted_shell_run_fails_partition(monkeypatch, moved):
    # the runs still tile the grid with the right count of shells, so only
    # the digit rows show that one boundary moved up by a point
    below, above = moved
    exact = ultraspec.finite.Grid.shell_run

    def shifted(grid, k):
        run = exact(grid, k)
        if k == below:
            return range(run.start, run.stop + 1)
        if k == above:
            return range(run.start + 1, run.stop)
        return run

    monkeypatch.setattr(ultraspec.finite.Grid, "shell_run", shifted)
    outcome = run_verify(load_config(REPO_CONFIG))
    partition = next(c for c in outcome.checks if c.name == "shell_partition")
    assert not partition.passed and partition.defect == 1.0
    assert ["shell_partition", "FAIL", 1.0, 0.0] in outcome.rows()


@pytest.mark.parametrize("n", [3, 4])  # N = 729 and 6561
def test_verify_builds_no_exact_elements(tmp_path, n):
    # the exact checks read digit rows through the batch kernels, the only
    # exact arithmetic there is, and pass
    outcome = run_verify(load_config(write_config(tmp_path, dict(CANONICAL, n=n))))
    assert outcome.passed, [c.name for c in outcome.checks if not c.passed]


def carry_to_next_column(monkeypatch):
    # p at column i lands on column i + 1 instead of i + e (e = 2 here)
    normalize = ultraspec.fields._normalize
    monkeypatch.setattr(ultraspec.fields, "_normalize", lambda p, e, cols: normalize(p, 1, cols))


def phase_weight_raised(monkeypatch):
    # the weight of exponent 0, which the unit ball must not see, raised by 1
    weights = ultraspec.fields._phase_weights

    def raised(field, lo, width):
        w, den = weights(field, lo, width)
        w = w.copy()
        w[-lo * field.f] += 1
        return w, den

    monkeypatch.setattr(ultraspec.fields, "_phase_weights", raised)


def negation_digit_off(monkeypatch):
    neg_rows = ultraspec.verify.neg_rows

    def off(field, x, lo, mod_exp=None):
        out = neg_rows(field, x, lo, mod_exp)
        out[:, 0] = (out[:, 0] + 1) % field.q
        return out

    monkeypatch.setattr(ultraspec.verify, "neg_rows", off)


def valuation_shifted(monkeypatch):
    valuation_rows = ultraspec.verify.valuation_rows
    monkeypatch.setattr(ultraspec.verify, "valuation_rows", lambda x, lo: valuation_rows(x, lo) + 1)


def valuation_from_the_top(monkeypatch):
    # the columns read in reverse: minus the top exponent, which carries break
    valuation_rows = ultraspec.verify.valuation_rows
    monkeypatch.setattr(
        ultraspec.verify, "valuation_rows", lambda x, lo: valuation_rows(x[:, ::-1], lo)
    )


EXACT_FAULTS = {
    "carry_to_next_column": (carry_to_next_column, "character_additivity"),
    "phase_weight_raised": (phase_weight_raised, "character_rank_zero"),
    "negation_digit_off": (negation_digit_off, "negation_round_trip"),
    "valuation_shifted": (valuation_shifted, "valuation_multiplicative"),
    "valuation_from_the_top": (valuation_from_the_top, "ultrametric_inequality"),
}


@pytest.mark.parametrize("fault", list(EXACT_FAULTS))
def test_exact_check_sees_planted_fault(monkeypatch, fault):
    plant, check = EXACT_FAULTS[fault]
    plant(monkeypatch)
    outcome = run_verify(load_config(REPO_CONFIG))
    row = next(c for c in outcome.checks if c.name == check)
    assert not row.passed and row.defect > 0


def test_exact_check_fault_fails_the_command(tmp_path, monkeypatch, capsys):
    carry_to_next_column(monkeypatch)
    code = main(["verify", "--config", str(REPO_CONFIG), "--out", str(tmp_path)])
    assert code == 2
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert "character_additivity" in failed


def test_verify_reaches_past_the_dense_cap(tmp_path):
    # N = 6561 > FOURIER_DENSE_CAP, which verify no longer depends on
    data = dict(CANONICAL, n=4)
    outcome = run_verify(load_config(write_config(tmp_path, data)))
    assert outcome.passed, [c.name for c in outcome.checks if not c.passed]


@pytest.mark.parametrize("perturbed_kernel", [1e-6, np.nan], indirect=True)
def test_verify_compares_kernel_with_fourier_operator(tmp_path, perturbed_kernel, capsys):
    code = main(["verify", "--config", str(REPO_CONFIG), "--out", str(tmp_path)])
    assert code == 2
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed == ["hamiltonian_hermiticity"]


def test_verify_exit_code_two_on_failure(tmp_path, monkeypatch, capsys):
    from ultraspec.verify import CheckResult, VerifyOutcome

    broken = VerifyOutcome(checks=[CheckResult("fourier_unitary", False, 1.0, 1e-12)])
    monkeypatch.setattr(ultraspec.cli, "run_verify", lambda config: broken)
    code = main(["verify", "--config", str(REPO_CONFIG), "--out", str(tmp_path)])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# converge command
# ---------------------------------------------------------------------------


def test_converge_writes_trajectories(tmp_path, capsys):
    data = dict(CANONICAL)
    del data["n"]
    data["levels"] = [1, 2]
    config = write_config(tmp_path, data)
    out = tmp_path / "conv"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "trajectories.csv").read_text().splitlines()
    assert text[0] == "trajectory,level,value,multiplicity,drift,alignment"
    first = text[1].split(",")
    assert float(first[2]) == pytest.approx(0.6688, abs=1e-3)  # lambda_0 column
    assert (out / "level_clusters.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_converge_output_is_deterministic(tmp_path, fmt):
    data = dict(CANONICAL)
    del data["n"]
    data["levels"] = [1, 2, 3]
    config = write_config(tmp_path, data)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["converge", "--config", str(config), "--out", str(out), "--format", fmt]) == 0
    for name in (f"level_clusters.{fmt}", f"trajectories.{fmt}"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert main(["converge", "--config", str(config), "--out", str(out1), "--format", fmt]) == 0
    assert files(out1) == files(out2) and len(files(out1)) == 2


def test_spectrum_and_converge_never_expand_the_eigenvalues(tmp_path, monkeypatch):
    # both commands read each family's one value; the N sorted eigenvalues stay unbuilt
    def expand(report):
        raise AssertionError("the N sorted eigenvalues were built")

    monkeypatch.setattr(SpectrumReport, "eigenvalues", property(expand), raising=False)
    assert main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(tmp_path / "s")]) == 0
    data = dict(CANONICAL)
    del data["n"]
    data["levels"] = [1, 2, 3]
    config = write_config(tmp_path, data)
    assert main(["converge", "--config", str(config), "--out", str(tmp_path / "c")]) == 0


def test_converge_single_level(tmp_path):
    config = write_config(tmp_path, CANONICAL)
    out = tmp_path / "single"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == 0
    rows = (out / "trajectories.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[4] == "" for row in rows)  # no drift without matching


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_directory_as_config_exits_one(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_non_utf8_config_exits_one(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(json.dumps(CANONICAL).encode() + b"\xff")
    assert main(["spectrum", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_out_naming_an_existing_file_exits_one(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["verify", "--config", str(REPO_CONFIG), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert out.read_text() == ""


@pytest.mark.parametrize("command", ["spectrum", "verify", "converge"])
@pytest.mark.parametrize(
    "exc",
    [
        MemoryError(),
        _ArrayMemoryError((59049, 59049), np.dtype(np.float64)),
    ],
    ids=["bare", "numpy"],
)
def test_memory_error_exits_one_with_one_line(tmp_path, monkeypatch, capsys, command, exc):
    def out_of_memory(config):
        raise exc

    monkeypatch.setattr(ultraspec.cli, f"cmd_{command}", out_of_memory)
    assert main([command, "--config", str(REPO_CONFIG), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {exc}" if str(exc) else "error: out of memory"]


def test_config_error_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, dict(CANONICAL, n=8))
    assert main(["spectrum", "--config", str(config)]) == 1


@pytest.mark.parametrize(
    "key, patch",
    [
        ("n", {"n": "x"}),
        ("n", {"n": 2.5}),
        ("n", {"n": True}),
        ("levels", {"levels": [1, "2"]}),
        ("grid_cap", {"grid_cap": True}),
        ("field.e", {"field": {"family": "eisenstein", "p": 3, "e": "2"}}),
        ("field.f", {"field": {"family": "laurent", "p": 3, "f": 1.5}}),
        ("tolerances.cluster_tol", {"tolerances": {"cluster_tol": "tight"}}),
        ("ground_state_upper_bound", {"ground_state_upper_bound": "0.7"}),
        ("output.dir", {"output": {"dir": None}}),
        ("output.dir", {"output": {"dir": 7}}),
        ("output.dir", {"output": {"dir": ""}}),
        ("output.format", {"output": {"format": 1}}),
    ],
    ids=[
        "n-str",
        "n-float",
        "n-bool",
        "levels",
        "grid_cap",
        "e",
        "f",
        "tol",
        "bound",
        "dir-null",
        "dir-int",
        "dir-empty",
        "format-int",
    ],
)
def test_wrongly_typed_value_exits_one(tmp_path, monkeypatch, capsys, key, patch):
    config = write_config(tmp_path, dict(CANONICAL, **patch))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"'{key}'" in err[0]
    assert list(tmp_path.iterdir()) == [config]  # no output directory, not even ./None


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "patch",
    [
        {"alpha": None},
        {"kinetic_coeff": None},
        {"potential": {"kind": "monomial", "c": None, "s": 2.0}},
        {"potential": {"kind": "table", "values": {"1": None}, "w0": 0.0}},
        {"potential": {"kind": "table", "values": {"1": 1.0}, "w0": None}},
        {"ground_state_upper_bound": None},
    ],
    ids=["alpha", "kinetic_coeff", "c", "table-value", "w0", "bound"],
)
def test_non_finite_number_exits_one(tmp_path, capsys, patch, literal):
    # json.loads reads NaN, Infinity and -Infinity, and 1e999 overflows to inf
    text = json.dumps(dict(CANONICAL, **patch)).replace("null", literal)
    config = tmp_path / "run.cfg"
    config.write_text(text)
    with pytest.raises(ParseError, match=f"{literal} is not a finite number"):
        load_config(config)
    for command in ("spectrum", "converge"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {config}: {literal} is not a finite number"]
    assert list(tmp_path.iterdir()) == [config]


def test_empty_out_flag_exits_one(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, CANONICAL)
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--config", str(config), "--out", ""]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--out" in err[0]
    assert list(tmp_path.iterdir()) == [config]  # nothing in ./ or in the config's out/


@pytest.mark.parametrize(
    "values",
    [{"-1": 1.0, "0": 2.0, "1": 3.0}, {"-1": 1.0, "1": 3.0, "2": 4.0}],
    ids=["below-level", "gap"],
)
def test_table_potential_short_of_the_grid_exits_one(tmp_path, capsys, values):
    data = dict(CANONICAL, potential={"kind": "table", "values": values})
    config = write_config(tmp_path, data)
    for command in ("spectrum", "verify"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid config field 'potential'")
    data["potential"]["values"] = dict(values, **{"0": 2.0, "2": 4.0})  # covers shell n = 2
    config = write_config(tmp_path, data)
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "key, patch",
    [
        ("alpha", {"alpha": 700}),
        ("potential.s", {"potential": {"kind": "monomial", "c": 0.5, "s": 400}}),
    ],
    ids=["alpha", "s"],
)
def test_overflowing_exponent_exits_one(tmp_path, capsys, key, patch):
    # q**(n * exponent) at the outer shell overflows a float
    config = write_config(tmp_path, dict(json.loads(REPO_CONFIG.read_text()), **patch))
    for command in ("spectrum", "verify", "converge"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: invalid config field '{key}'")
        assert not out.exists()


BIG = 10**400  # an integer literal past the float range
BIG_TABLE = {"-1": 1.0, "0": 2.0, "1": 3.0, "2": 4.0}


@pytest.mark.parametrize(
    "key, patch",
    [
        ("alpha", {"alpha": BIG}),
        ("kinetic_coeff", {"kinetic_coeff": BIG}),
        ("potential.c", {"potential": {"kind": "monomial", "c": BIG, "s": 2.0}}),
        ("potential.s", {"potential": {"kind": "monomial", "c": 0.5, "s": BIG}}),
        (
            "potential.values.2",
            {"potential": {"kind": "table", "values": dict(BIG_TABLE, **{"2": BIG})}},
        ),
        ("potential.w0", {"potential": {"kind": "table", "values": BIG_TABLE, "w0": BIG}}),
        ("tolerances.cluster_tol", {"tolerances": {"cluster_tol": BIG}}),
        ("ground_state_upper_bound", {"ground_state_upper_bound": BIG}),
    ],
    ids=["alpha", "kinetic_coeff", "c", "s", "table-value", "w0", "tol", "bound"],
)
def test_integer_past_the_float_range_exits_one(tmp_path, capsys, key, patch):
    config = write_config(tmp_path, dict(CANONICAL, **patch))
    with pytest.raises(ValidationError) as err:
        load_config(config)
    assert err.value.field == key
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: invalid config field '{key}': integer too large for a float"]
    assert list(tmp_path.iterdir()) == [config]


def test_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    # json reads a 5000-digit literal with int(), which refuses more than 4300 digits
    text = json.dumps(CANONICAL).replace('"alpha": 2.0', '"alpha": 1' + "0" * 4999)
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "patch, levels",
    [({"n": 4600}, [4600]), ({"levels": [2, 4600]}, [2, 4600])],
    ids=["n", "levels"],
)
def test_level_with_a_huge_grid_exits_one(tmp_path, capsys, patch, levels):
    # q**(2n) has more than 4300 digits; the message gives the power, not its digits
    data = dict(CANONICAL, **patch)
    if "levels" in patch:
        del data["n"]
    config = write_config(tmp_path, data)
    for command in ("spectrum", "converge", "verify"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: level 4600: q**(2n) = 3**9200 exceeds the grid cap 1048576"]
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "field, n, p",
    [({"family": "eisenstein", "p": 3, "e": 2}, 20, 3), ({"family": "eisenstein", "p": 2}, 32, 2)],
    ids=["Q3e2-n20", "Q2-n32"],
)
def test_level_past_the_int64_index_range_exits_one(tmp_path, capsys, field, n, p):
    # the cap is raised to the grid's size; the int64 index limit still refuses it
    config = write_config(tmp_path, dict(CANONICAL, field=field, n=n, grid_cap=p ** (2 * n)))
    for command in ("spectrum", "converge", "verify"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        limit = "the int64 index range 9223372036854775807"
        assert err == [f"error: level {n}: q**(2n) = {p}**{2 * n} exceeds {limit}"]
    assert list(tmp_path.iterdir()) == [config]


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "patch",
    [
        {"n": 10**300},
        {"field": {"family": "eisenstein", "p": 2**61 - 1}},
        {"field": {"family": "laurent", "p": 3, "f": 40}},
    ],
    ids=["n-googol-cubed", "p-mersenne-61", "laurent-f40"],
)
def test_grid_cap_is_checked_before_the_field_is_built(tmp_path, patch):
    # the cap is decided from the exponent 2nf, before the power, the primality test of p
    # or the search for a degree-f modulus; a timeout and a memory bound keep a regression
    # from hanging the suite
    config = write_config(tmp_path, dict(CANONICAL, **patch))
    args = ("spectrum", "--config", str(config), "--out", "out")
    result = run_cli(tmp_path, *args, timeout=20, preexec_fn=_limit_address_space)
    assert result.returncode == 1
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: level ") and "exceeds the grid cap" in err[0]
    assert list(tmp_path.iterdir()) == [config]


def test_converge_prints_each_warning_once(tmp_path):
    data = dict(CANONICAL, levels=[1, 2], ground_state_upper_bound=0.1)
    del data["n"]
    config = write_config(tmp_path, data)
    result = run_cli(tmp_path, "converge", "--config", str(config), "--out", "conv")
    assert result.returncode == 0
    err = result.stderr.splitlines()
    assert len(err) == 2
    for level, line in zip((1, 2), err):
        assert line.startswith("warning: ground state ")
        assert line.endswith(f" at level {level} outside (0, 0.100000)")


def test_every_command_prints_a_loading_warning_once(tmp_path):
    # a table potential that peaks before its largest radius warns while the config loads
    table = {"kind": "table", "values": {"-1": 3, "0": 5, "1": 2, "2": 1}, "w0": 0.5}
    data = dict(CANONICAL, potential=table)
    single = write_config(tmp_path, data)
    del data["n"]
    levels = write_config(tmp_path, dict(data, levels=[1, 2]), name="levels.cfg")
    for command, config in (("spectrum", single), ("verify", single), ("converge", levels)):
        result = run_cli(tmp_path, command, "--config", str(config), "--out", command)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines() == [
            "warning: table potential peaks before its largest radius; not confining"
        ]


def test_converge_prints_the_warnings_of_levels_solved_before_a_failure(tmp_path):
    # level 1 solves with its ground state 4.67 past the bound; level 2 overflows
    data = dict(json.loads(REPO_CONFIG.read_text()), alpha=300, levels=[1, 2])
    del data["n"]
    config = write_config(tmp_path, data)
    result = run_cli(tmp_path, "converge", "--config", str(config), "--out", "conv")
    assert result.returncode == 3
    warning, failure = result.stderr.splitlines()
    assert warning == "warning: ground state 4.666667 at level 1 outside (0, 0.692308)"
    assert failure.startswith("numerical failure: residual inf")


@pytest.mark.parametrize(
    "patch",
    [{"alpha": 300}, {"potential": {"kind": "monomial", "c": 0.5, "s": 300}}],
    ids=["alpha", "s"],
)
def test_large_finite_exponent_fails_on_one_line(tmp_path, patch):
    # q**(n * exponent) is a float, but the residual norms pass the float range
    config = write_config(tmp_path, dict(json.loads(REPO_CONFIG.read_text()), **patch))
    for command in ("spectrum", "converge"):
        result = run_cli(tmp_path, command, "--config", str(config), "--out", command)
        assert result.returncode == 3
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: residual inf")


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ResidualTooLarge("synthetic")

    monkeypatch.setattr(ultraspec.cli, "eigensolve", explode)
    code = main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the solve path
# ---------------------------------------------------------------------------


def test_solve_path_builds_no_exact_phase(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solve path reached the exact-phase machinery")

    monkeypatch.setattr(ultraspec.verify, "_PhaseTable", refuse)
    monkeypatch.setattr(ultraspec.verify, "fourier_apply", refuse)
    monkeypatch.setattr(ultraspec.finite.Grid, "digits", property(refuse))
    for path in (REPO_CONFIG, LAURENT_CONFIG):
        config = load_config(path)
        for n in (2, 3):
            grid = ultraspec.build_grid(config.field, n)
            model = ultraspec.assemble_hamiltonian(
                grid, config.alpha, config.kinetic_coeff, config.potential, config.convention
            )
            report = ultraspec.eigensolve(model)
            assert report.summary_rows() and classification(report, grid.size - 1)
        data = dict(json.loads(path.read_text()), levels=[1, 2, 3])
        del data["n"]
        config = write_config(tmp_path, data, name=f"{path.stem}_levels.cfg")
        out = tmp_path / path.stem
        assert main(["converge", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "trajectories.csv").exists()
