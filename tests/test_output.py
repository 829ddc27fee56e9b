"""The streamed eigenvector bundle against the row functions and stdlib encoders."""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ultraspec import (
    ZERO_SHELL,
    EisensteinExtension,
    LaurentField,
    assemble_hamiltonian,
    build_grid,
    eigensolve,
    format_element,
    load_config,
    make_field,
)
from ultraspec.output import (
    EIGENVECTOR_HEADER,
    GRID_HEADER,
    eigenvector_rows,
    grid_rows,
    write_eigenvector_bundle,
    write_spectrum_outputs,
    write_table,
    _point_labels,
)

FORMATS = ("csv", "json")


@pytest.fixture(
    scope="module", params=[("q3sqrt3", 1), ("q3sqrt3", 2), ("f3_laurent", 1), ("f3_laurent", 2)]
)
def report(request, ho_potential):
    field, n = request.param
    grid = build_grid(request.getfixturevalue(field), n)
    return eigensolve(assemble_hamiltonian(grid, 2.0, 0.5, ho_potential))


def oracle_bundle(path, grid, vectors, fmt):
    """The bundle through ``write_table``, i.e. the stdlib csv/json encoders."""
    rows = [
        [j] + row for j in range(vectors.shape[1]) for row in eigenvector_rows(grid, vectors[:, j])
    ]
    return write_table(path, ["vector"] + EIGENVECTOR_HEADER, rows, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_spectrum_outputs_match_row_path(report, fmt, tmp_path):
    grid = report.grid
    written = {p.name: p.read_bytes() for p in write_spectrum_outputs(tmp_path / "new", report, fmt)}
    old = tmp_path / "old"
    expected = [
        write_table(old / f"grid.{fmt}", GRID_HEADER, grid_rows(grid), fmt),
        write_table(
            old / f"ground_state.{fmt}",
            EIGENVECTOR_HEADER,
            eigenvector_rows(grid, report.eigenvectors[:, 0]),
            fmt,
        ),
        oracle_bundle(old / f"eigenvectors.{fmt}", grid, report.eigenvectors, fmt),
    ]
    for path in expected:
        assert written[path.name] == path.read_bytes(), path.name


@pytest.mark.parametrize("fmt", FORMATS)
def test_complex_and_nonfinite_vectors_match_row_path(grid_n1, fmt, tmp_path):
    size = grid_n1.size
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
    vectors[0, 0] = complex(-0.0, -0.0)
    vectors[1, 0] = complex(0.0, -0.0)
    vectors[2, 0] = complex(-0.0, 0.0)
    vectors[:3, 2] = [complex(np.nan, 1.0), complex(np.inf, -np.inf), complex(-np.inf, np.nan)]
    # repeated values from a small pool, keyed apart by their bits (±0.0, ±nan)
    pool = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 0.1 + 0.2, 1 / 3]
    pooled = np.empty((size, 40), dtype=complex)
    pooled.real = rng.choice(pool, size=pooled.shape)
    pooled.imag = rng.choice(pool, size=pooled.shape)
    pooled[:, 0].real = -0.0
    pooled[:, 0].imag = 1 / 3
    for k, vectors in enumerate([vectors, pooled]):
        new = write_eigenvector_bundle(tmp_path / f"new{k}.{fmt}", grid_n1, vectors, fmt)
        old = oracle_bundle(tmp_path / f"old{k}.{fmt}", grid_n1, vectors, fmt)
        assert new.read_bytes() == old.read_bytes()


def test_rows_label_points_with_format_element(grid_n2):
    expected = [
        [i, format_element(point), "-inf" if shell == ZERO_SHELL else str(int(shell))]
        for i, (point, shell) in enumerate(zip(grid_n2.points, grid_n2.shells))
    ]
    assert [row[:3] for row in grid_rows(grid_n2)] == expected
    assert [row[:3] for row in eigenvector_rows(grid_n2, np.ones(grid_n2.size))] == expected


def test_csv_quotes_comma_bearing_digits(grid_n1, tmp_path):
    path = write_eigenvector_bundle(tmp_path / "v.csv", grid_n1, np.eye(grid_n1.size), "csv")
    index = next(i for i, p in enumerate(grid_n1.points) if "," in format_element(p))
    digits = format_element(grid_n1.points[index])
    line = path.read_text().splitlines()[1 + index]
    assert line.startswith(f'0,{index},"{digits}",')
    assert next(csv.reader([line]))[2] == digits


def test_bundle_rejects_unknown_format(grid_n1, tmp_path):
    with pytest.raises(ValueError, match="unknown output format"):
        write_eigenvector_bundle(tmp_path / "v.txt", grid_n1, np.eye(grid_n1.size), "txt")


@pytest.mark.parametrize("shape", [(8, 9), (10, 9), (9,)], ids=["short", "long", "1d"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_bundle_rejects_wrong_row_count(grid_n1, shape, fmt, tmp_path):
    assert grid_n1.size == 9
    with pytest.raises(ValueError, match="points have shape"):
        write_eigenvector_bundle(tmp_path / f"v.{fmt}", grid_n1, np.ones(shape), fmt)
    assert not (tmp_path / f"v.{fmt}").exists()


@pytest.mark.parametrize("shape", [(8,), (10,), (9, 1)], ids=["short", "long", "2d"])
def test_rows_reject_wrong_length(grid_n1, shape):
    with pytest.raises(ValueError, match="point.* has shape"):
        eigenvector_rows(grid_n1, np.ones(shape))


@pytest.mark.parametrize("fmt", FORMATS)
def test_bundle_memory_stays_below_a_quarter_matrix(fmt, tmp_path):
    """The writer's traced peak at N = 729 stays below 0.25 * 8 N**2 bytes."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "q3sqrt3_ho.cfg")
    grid = build_grid(config.field, 3)
    report = eigensolve(
        assemble_hamiltonian(
            grid, config.alpha, config.kinetic_coeff, config.potential, config.convention
        )
    )
    vectors = report.eigenvectors  # the dense build is not the writer's
    tracemalloc.start()
    try:
        write_eigenvector_bundle(tmp_path / f"v.{fmt}", grid, vectors, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * grid.size**2


@pytest.mark.parametrize(
    "spec, n",
    [
        (EisensteinExtension(p=7, e=1), 2),
        (EisensteinExtension(p=3, e=2), 3),
        (LaurentField(p=2, f=2), 2),
    ],
    ids=["Q7-n2", "Q3e2-n3", "F4t-n2"],
)
def test_digit_labels_match_format_element(spec, n):
    grid = build_grid(make_field(spec), n)
    assert [digits for digits, _ in _point_labels(grid)] == [format_element(x) for x in grid.points]
