"""The table writers and the streamed eigenvector bundle against the stdlib encoders."""

import copy
import csv
import dataclasses
import functools
import gc
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ultraspec import (
    ZERO_SHELL,
    EisensteinExtension,
    GridTooLarge,
    LaurentField,
    assemble_hamiltonian,
    build_grid,
    eigensolve,
    load_config,
    make_field,
)
from ultraspec.spectra import SpectrumReport, VectorFamily, _format_shell
import oracles
from oracles import classification, point_shells, sorted_eigenvalues
from ultraspec.output import (
    EIGENVECTOR_HEADER,
    GRID_HEADER,
    SPECTRUM_HEADER,
    eigenvector_rows,
    grid_rows,
    spectrum_rows,
    write_eigenvector_bundle,
    write_spectrum_outputs,
    write_table,
    _fmt,
    _point_labels,
    _profile_str,
)
import ultraspec.cli
import ultraspec.output

FORMATS = ("csv", "json")


@pytest.fixture(
    scope="module", params=[("q3sqrt3", 1), ("q3sqrt3", 2), ("f3_laurent", 1), ("f3_laurent", 2)]
)
def report(request, ho_potential):
    field, n = request.param
    grid = build_grid(request.getfixturevalue(field), n)
    return eigensolve(assemble_hamiltonian(grid, 2.0, 0.5, ho_potential))


def oracle_write_table(path, header, rows, fmt="csv"):
    """A table through the stdlib csv/json encoders, cell by cell."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(rows)
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    elif fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        with open(path, "w") as handle:
            handle.write(json.dumps(records, indent=1, sort_keys=True, default=_fmt) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


def oracle_bundle(path, grid, blocks, fmt, numbers=None):
    """The bundle of the blocks' columns through ``oracle_write_table`` (the stdlib encoders).

    Column k is numbered ``numbers[k]``, by default k.
    """
    vectors = np.hstack(list(blocks))
    numbers = range(vectors.shape[1]) if numbers is None else numbers
    columns = zip(numbers, vectors.T)
    rows = [[j] + row for j, vector in columns for row in eigenvector_rows(grid, vector)]
    return oracle_write_table(path, ["vector"] + EIGENVECTOR_HEADER, rows, fmt)


# repeated values, keyed apart by their bits (±0.0, ±nan)
POOL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 0.1 + 0.2, 1 / 3]


def hand_made_report(grid, dtype=np.float64):
    """A report on the 9 points of ``grid`` (q = 3, n = 1) whose templates are drawn from POOL.

    One column over the shells (sizes 1, 2, 6), two wavelets on each of the
    three depth-1 nodes, and two single points; each family holds a signed
    zero or a NaN off its node.
    """
    assert grid.size == 9 and grid.field.q == 3
    rng = np.random.default_rng(3)

    def draw(rows, k):
        return rng.choice(POOL, size=(rows, k)).astype(dtype)

    families = [
        VectorFamily(0, None, 0.0, 1, 0, draw(3, 1), np.array([-0.0]), np.array([1, 2, 6])),
        VectorFamily(1, 0.0, 1.0, 6, 0, draw(3, 2), np.array([-0.0, 0.0]), 1, start=1),
        VectorFamily(2, 1.0, 2.0, 2, 3, draw(1, 1), np.array([np.nan]), 1, start=7),
    ]
    families[1].template[:, 0] = [-0.0, 1 / 3, -0.0]  # a column of few values, -0.0 among them
    return SpectrumReport(families, [], grid)


@pytest.mark.parametrize("fmt", FORMATS)
def test_spectrum_outputs_match_row_path(report, fmt, tmp_path):
    grid = report.grid
    written = {p.name: p.read_bytes() for p in write_spectrum_outputs(tmp_path / "new", report, fmt)}
    old = tmp_path / "old"
    expected = [
        oracle_write_table(old / f"grid.{fmt}", GRID_HEADER, grid_rows(grid), fmt),
        oracle_write_table(old / f"eigenvalues.{fmt}", SPECTRUM_HEADER, spectrum_rows(report), fmt),
        oracle_write_table(
            old / f"ground_state.{fmt}",
            EIGENVECTOR_HEADER,
            eigenvector_rows(grid, report.eigenvectors[:, 0]),
            fmt,
        ),
        oracle_bundle(old / f"eigenvectors.{fmt}", grid, [report.eigenvectors], fmt),
    ]
    for path in expected:
        assert written[path.name] == path.read_bytes(), path.name


def test_spectrum_rows_label_every_column_by_its_family(report):
    # the per-column path: each sorted column's cluster, and the label and profile of the
    # classification its family shares
    expected = [
        [rank, sorted_eigenvalues(report)[rank], ci, cluster.multiplicity]
        + [
            classification(report, rank).label(),
            _profile_str(classification(report, rank).profile),
        ]
        for ci, cluster in enumerate(report.clusters)
        for rank in cluster.indices
    ]
    assert list(spectrum_rows(report)) == expected
    assert len(expected) == report.grid.size and len({row[4] for row in expected}) > 2


@pytest.mark.parametrize("fmt", FORMATS)
def test_hand_made_families_match_row_path(grid_n1, fmt, tmp_path):
    report = hand_made_report(grid_n1)
    vectors = report.eigenvectors
    assert np.isnan(vectors).any() and (np.signbit(vectors) & (vectors == 0)).any()
    new = write_eigenvector_bundle(tmp_path / f"new.{fmt}", report, fmt)
    old = oracle_bundle(tmp_path / f"old.{fmt}", grid_n1, [vectors], fmt)
    assert new.read_bytes() == old.read_bytes()
    # a template that is not real float64 is refused before the file opens
    for dtype in (np.complex128, np.float32):
        bad = hand_made_report(grid_n1, dtype)
        assert bad.families[0].template.dtype == dtype
        bad.families[0].template[0] += 1j if dtype == np.complex128 else 0
        with pytest.raises(ValueError, match="real float64"):
            write_eigenvector_bundle(tmp_path / f"bad.{fmt}", bad, fmt)
        assert not (tmp_path / f"bad.{fmt}").exists()


FAMILY_SHAPES = {
    "Q2-n1": (EisensteinExtension(p=2, e=1), 1, 0.5, 1e-6),  # q = 2: no wavelet on the path
    "Q2-n2": (EisensteinExtension(p=2, e=1), 2, 0.5, 1e-6),
    "Q2-n3": (EisensteinExtension(p=2, e=1), 3, 0.5, 1e-6),
    "F4t-n2": (LaurentField(p=2, f=2), 2, 0.5, 1e-6),  # f > 1
    "point-basis": (EisensteinExtension(p=3, e=2), 2, 0.0, 1e-6),  # a = 0
    "rotated-radial": (EisensteinExtension(p=3, e=2), 2, 0.5, 1e-4),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("shape", sorted(FAMILY_SHAPES))
def test_bundle_matches_oracle_on_every_family_shape(shape, fmt, tmp_path, ho_potential):
    spec, n, a, cluster_tol = FAMILY_SHAPES[shape]
    grid = build_grid(make_field(spec), n)
    report = eigensolve(assemble_hamiltonian(grid, 2.0, a, ho_potential), cluster_tol=cluster_tol)
    radial = [f.start for f in report.families if f.shell is None]
    premise = {
        "point-basis": {f.depth for f in report.families} == {2 * n - 1},
        # a cluster of several radial families, whose templates the shell adaptation rotates
        "rotated-radial": any(len(set(radial) & set(c.indices)) > 1 for c in report.clusters),
    }
    assert premise.get(shape, True)
    new = write_eigenvector_bundle(tmp_path / f"new.{fmt}", report, fmt)
    old = oracle_bundle(tmp_path / f"old.{fmt}", grid, [report.eigenvectors], fmt)
    assert new.read_bytes() == old.read_bytes()


def test_rows_label_points_with_format_element(grid_n2):
    # each point's digit text read off its digit row (oracles.point_labels)
    texts = [digits for digits, _ in oracles.point_labels(grid_n2)]
    expected = [
        [i, texts[i], "-inf" if shell == ZERO_SHELL else str(int(shell))]
        for i, shell in enumerate(point_shells(grid_n2))
    ]
    assert [row[:3] for row in grid_rows(grid_n2)] == expected
    assert [row[:3] for row in eigenvector_rows(grid_n2, np.ones(grid_n2.size))] == expected
    # |x| = q**shell, read per point, and the zero cell's +0.0
    q = float(grid_n2.field.q)
    radii = [q**shell if shell != ZERO_SHELL else 0.0 for shell in point_shells(grid_n2)]
    rows = list(grid_rows(grid_n2))
    assert [repr(row[3]) for row in rows] == [repr(float(r)) for r in radii]
    assert {row[4] for row in rows} == {grid_n2.mass}


def _typed(rows):
    return [[(type(cell), repr(cell)) for cell in row] for row in rows]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", ["q3sqrt3", "f3_laurent"])
def test_row_views_match_per_row_oracle(field, n, request):
    """The zipped row views against the per-point rows: equal cells of equal types."""
    grid = build_grid(request.getfixturevalue(field), n)
    assert _typed(grid_rows(grid)) == _typed(oracles.grid_rows(grid))
    rng = np.random.default_rng(n)
    real = rng.choice(POOL + [-2.5, 7.0], size=grid.size)
    cplx = np.empty(grid.size, dtype=complex)
    cplx.real, cplx.imag = real, real[::-1]
    vectors = [real, cplx, real.astype(np.float32), np.arange(grid.size) - 3]
    for vector in vectors:
        expected = _typed(oracles.eigenvector_rows(grid, vector))
        assert _typed(eigenvector_rows(grid, vector)) == expected, vector.dtype


def test_csv_quotes_comma_bearing_digits(grid_n1, tmp_path):
    path = write_eigenvector_bundle(tmp_path / "v.csv", hand_made_report(grid_n1), "csv")
    labels = oracles.point_labels(grid_n1)
    index, digits = next((i, d) for i, (d, _) in enumerate(labels) if "," in d)
    line = path.read_text().splitlines()[1 + index]
    assert line.startswith(f'0,{index},"{digits}",')
    assert next(csv.reader([line]))[2] == digits


def test_bundle_rejects_unknown_format(grid_n1, tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        write_eigenvector_bundle(tmp_path / "v.txt", hand_made_report(grid_n1), "txt")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(8,), (10,), (9, 1)], ids=["short", "long", "2d"])
def test_rows_reject_wrong_length(grid_n1, shape):
    with pytest.raises(ValueError, match="point.* has shape"):
        eigenvector_rows(grid_n1, np.ones(shape))


@pytest.mark.parametrize("fmt", FORMATS)
def test_bundle_memory_stays_below_a_quarter_matrix(fmt, tmp_path):
    """The spectrum files' traced peak at N = 729, vectors included, stays below 0.25 * 8 N**2."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "q3sqrt3_ho.cfg")
    grid = build_grid(config.field, 3)
    report = eigensolve(
        assemble_hamiltonian(
            grid, config.alpha, config.kinetic_coeff, config.potential, config.convention
        )
    )
    tracemalloc.start()
    try:
        write_spectrum_outputs(tmp_path, report, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * grid.size**2
    assert "eigenvectors" not in vars(report)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("field", ["q3sqrt3", "f4_laurent"])
def test_bundle_bytes_survive_block_cuts(field, fmt, tmp_path, ho_potential):
    """The bundle ``write_spectrum_outputs`` writes, every family whole, against the oracle."""
    fields = {"q3sqrt3": EisensteinExtension(p=3, e=2), "f4_laurent": LaurentField(p=2, f=2)}
    grid = build_grid(make_field(fields[field]), 2)
    report = eigensolve(assemble_hamiltonian(grid, 2.0, 0.5, ho_potential))
    expected = oracle_bundle(tmp_path / f"old.{fmt}", grid, [report.eigenvectors], fmt)
    written = write_spectrum_outputs(tmp_path / "new", report, fmt)[-1]
    assert written.read_bytes() == expected.read_bytes()


def test_bundle_past_the_row_cap_is_refused_before_any_file(
    canonical_report, tmp_path, monkeypatch, capsys
):
    # by estimate only: the cap is lowered below 81**2 rather than a level-5 grid solved
    monkeypatch.setattr(ultraspec.output, "BUNDLE_ROW_CAP", 81**2 - 1)
    assert canonical_report.grid.size == 81
    with pytest.raises(GridTooLarge, match="6561 rows exceed the row cap 6560"):
        write_spectrum_outputs(tmp_path / "lib", canonical_report, "csv")
    config = tmp_path / "run.cfg"
    config.write_text(json.dumps(dict(json.loads((CONFIGS / "q3sqrt3_ho.cfg").read_text()), n=2)))
    argv = ["spectrum", "--config", str(config), "--out", str(tmp_path / "cli")]
    assert ultraspec.cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: level 2: ")
    assert list(tmp_path.iterdir()) == [config]


def test_bundle_past_the_row_cap_leaves_existing_outputs_in_place(
    canonical_report, tmp_path, monkeypatch, capsys
):
    config = tmp_path / "run.cfg"
    config.write_text(json.dumps(dict(json.loads((CONFIGS / "q3sqrt3_ho.cfg").read_text()), n=2)))
    argv = ["spectrum", "--config", str(config), "--out", str(tmp_path / "cli")]
    assert ultraspec.cli.main(argv) == 0
    paths = write_spectrum_outputs(tmp_path / "lib", canonical_report, "csv")
    paths += sorted((tmp_path / "cli").iterdir())
    before = {path: (path.stat().st_ino, path.read_bytes()) for path in paths}
    capsys.readouterr()
    monkeypatch.setattr(ultraspec.output, "BUNDLE_ROW_CAP", 81**2 - 1)
    with pytest.raises(GridTooLarge, match="exceed the row cap"):
        write_spectrum_outputs(tmp_path / "lib", canonical_report, "csv")
    assert ultraspec.cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: level 2: ")
    assert {path: (path.stat().st_ino, path.read_bytes()) for path in paths} == before


LABEL_FIELDS = {
    **{
        f"Q{p}" + (f"e{e}" if e > 1 else ""): EisensteinExtension(p=p, e=e)
        for p, e in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]
    },
    **{
        f"F{p**f}t": LaurentField(p=p, f=f)
        for p, f in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]
    },
}


def _label_grids(limit=4096):
    """Every level with N <= limit of each of LABEL_FIELDS, ids as ``Q7-n2``, ``F4t-n2``.

    The residue fields run to q = 11 and q = 16, whose digits print as two
    characters.
    """
    params = []
    for name, spec in LABEL_FIELDS.items():
        q = make_field(spec).q
        levels = [n for n in range(1, 7) if q ** (2 * n) <= limit]  # q >= 2, so n <= 6
        params += [pytest.param(spec, n, id=f"{name}-n{n}") for n in levels]
    return params


@pytest.mark.parametrize("spec, n", _label_grids())
def test_digit_labels_match_format_element(spec, n):
    grid = build_grid(make_field(spec), n)
    digits, shells = _point_labels(grid)
    assert digits == [text for text, _ in oracles.point_labels(grid)]
    assert shells == [_format_shell(k) for k in point_shells(grid).tolist()]


NUMPY_CELLS = [np.int64(7), np.float64(-0.0), np.float64(2.5), np.float32(0.5), np.bool_(True)]
EDGE_TABLES = {
    "floats": (
        ["x", "y"],
        [[0.0, np.float64(0.1)], [-0.0, -0.0], [float("nan"), np.float64("nan")], [np.inf, 1 / 3],
         [-np.inf, 5e-324], [1e300, np.float64(-np.inf)], [0.0, 0.0]],
    ),
    "ints": (["i", "j"], [[0, -1], [2**70, 5], [-(2**64), 5]]),
    "drift": (["value", "drift"], [[1.5, None], [2.5, 1e-3], [3.5, None], [4.5, -0.0]]),
    "bools": (["b", "ib"], [[True, 1], [False, True], [True, 0]]),
    "numpy": (["a", "b", "c", "d", "e"], [NUMPY_CELLS, NUMPY_CELLS[::-1], [np.int64(-3)] * 5]),
    "strings": (
        ["s", "t"],
        [["a,b", 'say "hi"'], ["line\nbreak", "carriage\rreturn"], ["crlf\r\n", "é ü 日本"],
         ["", " lead"], ["plain", ""], ["a,b", "é ü 日本"]],
    ),
    "mixed": (["m"], [[1], ["1"], [1.0], [None], [True], [""], [np.int64(1)], ["x,y"]]),
    "lone-empty": (["s"], [[""], ["a"], [""], ["\r"], ["\n"]]),
    "lone-float": (["x"], [[0.0], [-0.0], [np.nan]]),
    "lone-none": (["x"], [[None], [None]]),
    "float32": (["x", "y"], [[np.float32(0.5), np.float32(-0.0)], [np.float32(0.1), np.float32(0.1)]]),
    "nested": (["c", "d"], [[[1, [2, 3]], {"b": 1, "a": [None, 2.5]}], [[], {}]]),
    "keys": (["b", "a", "é", 'q"k', "a"], [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]),
    "no-rows": (GRID_HEADER, []),
    "no-columns": ([], [[], [], []]),
    "empty-header-name": ([""], [["x"], [""]]),
    # long columns: distinct ints, comma-bearing and repeated strings, a few odd cells
    "many-rows": (
        ["i", "digits", "shell", "x"],
        [[i - 600, f"{i % 7 - 3}:{i % 5},{i}:1" if i % 3 else f"{i}:2",
          ["-inf", "0", "a,b", "3"][i % 4] if i % 101 else 'q"t,', [0.5, -0.0, i / 7][i % 3]]
         for i in range(1200)],
    ),
    "many-lone": (["s"], [[["", "a,b", str(i), "x\ny", "c\rd"][i % 5]] for i in range(1200)]),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(EDGE_TABLES))
def test_write_table_matches_stdlib_encoders(case, fmt, tmp_path):
    header, rows = EDGE_TABLES[case]
    new = write_table(tmp_path / f"new.{fmt}", header, iter(rows), fmt)
    old = oracle_write_table(tmp_path / f"old.{fmt}", header, iter(rows), fmt)
    assert new.read_bytes() == old.read_bytes()


def test_write_table_rejects_unknown_format_and_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        write_table(tmp_path / "t.txt", ["a"], [[1]], "txt")
    with pytest.raises(ValueError, match="unknown output format"):
        oracle_write_table(tmp_path / "t.txt", ["a"], [[1]], "txt")
    for fmt in FORMATS:
        with pytest.raises(ValueError, match="needs 2 cells"):
            write_table(tmp_path / f"r.{fmt}", ["a", "b"], [[1, 2], [3]], fmt)
    assert list(tmp_path.iterdir()) == []


def test_write_table_pauses_the_collector_and_restores_its_state(tmp_path):
    seen = []

    def rows():
        seen.append(gc.isenabled())
        yield [1, 2]

    assert gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            write_table(tmp_path / "t.csv", ["a", "b"], rows())
            assert seen == [False] and gc.isenabled() == enabled
            with pytest.raises(ValueError, match="needs 2 cells"):
                write_table(tmp_path / "r.csv", ["a", "b"], [[1, 2], [3]])
            assert gc.isenabled() == enabled
    finally:
        gc.enable()


# a file is replaced at its path, never truncated in place
WRITERS = {
    "table": lambda path, report, fmt: write_table(path, GRID_HEADER, grid_rows(report.grid), fmt),
    "bundle": lambda path, report, fmt: write_eigenvector_bundle(path, report, fmt),
}


@pytest.fixture(params=[(w, fmt) for w in WRITERS for fmt in FORMATS], ids="-".join)
def write(request, canonical_report):
    """A writer of one file at a path: the grid table or the bundle, as CSV or JSON."""
    writer, fmt = request.param
    return functools.partial(WRITERS[writer], report=canonical_report, fmt=fmt)


def test_writer_replaces_a_longer_file(write, tmp_path):
    expected = write(tmp_path / "fresh").read_bytes()
    path = tmp_path / "out"
    path.write_bytes(expected + b"a stale tail\n" * 1000)
    assert write(path).read_bytes() == expected


def test_writer_replaces_a_hard_link_and_keeps_its_sibling(write, tmp_path):
    expected = write(tmp_path / "fresh").read_bytes()
    path, sibling = tmp_path / "out", tmp_path / "sibling"
    sibling.write_bytes(b"the old bytes\n")
    os.link(sibling, path)
    assert write(path).read_bytes() == expected
    assert sibling.read_bytes() == b"the old bytes\n"
    assert path.stat().st_nlink == sibling.stat().st_nlink == 1


def test_writer_replaces_a_symlink_and_keeps_its_target(write, tmp_path):
    expected = write(tmp_path / "fresh").read_bytes()
    path, target = tmp_path / "out", tmp_path / "target"
    target.write_bytes(b"the old bytes\n")
    path.symlink_to(target)
    assert write(path).read_bytes() == expected
    assert not path.is_symlink() and path.is_file()
    assert target.read_bytes() == b"the old bytes\n"


def _sampled_report(report, picks):
    """A copy of ``report`` for the bundle writer: the sorted columns ``picks`` alone.

    Each is a one-column family with its number, its node and its template
    column (``report.placement``); the copy skips the check that the
    families cover every column, which a sample does not.
    """
    families = []
    for j in picks:
        f = next(f for f in report.families if j - f.start in range(f.multiplicity))
        _, node, starts, wavelets = report.placement(f, range(j, j + 1))
        w = slice(int(wavelets[0]), int(wavelets[0]) + 1)
        families.append(
            dataclasses.replace(
                f,
                multiplicity=1,
                first_node=int(starts[0]) // node,
                template=f.template[:, w],
                off_support=f.off_support[w],
                start=j,
            )
        )
    sample = copy.copy(report)
    sample.families = families
    return sample


def _sampled_writer(path, report, picks, fmt):
    return write_eigenvector_bundle(path, _sampled_report(report, picks), fmt)


def _sampled_oracle(path, report, picks, fmt):
    vectors = [report.columns(range(j, j + 1)) for j in picks]
    return oracle_bundle(path, report.grid, vectors, fmt, picks)


def _column_sample(write):
    """``write(path, report, picks, fmt)`` of about 30 of the bundle's columns ``picks``.

    So the in-memory oracle stays small; each column keeps its number.
    """

    def bundle(path, report, fmt):
        size = report.grid.size
        return write(path, report, range(0, size, max(1, size // 30)), fmt)

    return bundle


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FIELDS = {
    "Q7": {"family": "eisenstein", "p": 7, "e": 1},
    "F7t": {"family": "laurent", "p": 7, "f": 1},
}
CLI_RUNS = [
    pytest.param(fixture, None, command, level, id=f"{fixture}-{command}-{level}")
    for fixture in ("q3sqrt3_ho", "f3_laurent")
    for command, level in [("spectrum", 1), ("spectrum", 2), ("spectrum", 3), ("verify", 1)]
    + [("verify", 2), ("verify", 3), ("converge", [1, 2, 3])]
] + [
    pytest.param("q3sqrt3_ho", FIELDS[name], command, level, id=f"{name}-{command}-{level}")
    for name in FIELDS
    for command, level in [("spectrum", 2), ("verify", 2), ("converge", [1, 2])]
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("fixture, field, command, level", CLI_RUNS)
def test_command_files_match_stdlib_encoders(
    fixture, field, command, level, fmt, tmp_path, monkeypatch
):
    data = json.loads((CONFIGS / f"{fixture}.cfg").read_text())
    data.pop("n")
    data.update({"levels": level} if command == "converge" else {"n": level})
    if field is not None:
        data["field"] = field
    config = tmp_path / "run.cfg"
    config.write_text(json.dumps(data))
    writers = {
        "new": (write_table, _sampled_writer),
        "old": (oracle_write_table, _sampled_oracle),
    }
    for out, (table, bundle) in writers.items():
        monkeypatch.setattr(ultraspec.output, "write_table", table)
        monkeypatch.setattr(ultraspec.cli, "write_table", table)
        monkeypatch.setattr(ultraspec.output, "write_eigenvector_bundle", _column_sample(bundle))
        argv = [command, "--config", str(config), "--format", fmt, "--out", str(tmp_path / out)]
        assert ultraspec.cli.main(argv) in (0, 2)  # verify exits 2 on a failed check
    new = {p.name: p.read_bytes() for p in (tmp_path / "new").iterdir()}
    old = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}
    assert new.keys() == old.keys() and new
    for name in new:
        assert new[name] == old[name], name
